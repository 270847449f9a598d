import io
import os
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from typing import Optional
from unittest.mock import patch

from hypothesis import HealthCheck, settings

from qde.cli import main

settings.register_profile(
    "qde",
    deadline=None,
    derandomize=True,
    max_examples=40,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much, HealthCheck.data_too_large],
)
settings.load_profile("qde")


@dataclass
class CliResult:
    """What one `qde` run did: exit code, stdout, stderr, both interleaved, and the exception it ended with."""

    exit_code: int
    stdout: str
    stderr: str
    output: str
    exception: Optional[BaseException]


class _Tee(io.StringIO):
    """A captured stream that also copies every write, in order, into a shared one."""

    def __init__(self, shared: io.StringIO):
        super().__init__()
        self._shared = shared

    def write(self, text: str) -> int:
        self._shared.write(text)
        return super().write(text)


def run_cli(args: list, env: Optional[dict] = None) -> CliResult:
    """Run `qde <args>` in this process as the console script does, capturing its output and exit code.

    A SystemExit gives the exit code and, when nonzero, is the result's
    exception; any other exception exits 1 and is kept, not raised.
    """
    both = io.StringIO()
    out, err = _Tee(both), _Tee(both)
    code, exception = 0, None
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, env or {}):
        try:
            main.main(args=list(args), prog_name="qde")
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else int(exc.code is not None)
            exception = exc if code else None
        except Exception as exc:
            code, exception = 1, exc
    return CliResult(code, out.getvalue(), err.getvalue(), both.getvalue(), exception)
