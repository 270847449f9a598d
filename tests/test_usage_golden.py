"""Golden stdout, stderr and exit code of `qde` usage errors and help.

Each run is one in-process `qde` invocation: every usage error that
`test_cli.USAGE_ERRORS` lists, the help screens, a stray positional,
an option before the command, and options written as `--key=value` and
with a negative value.  The file holds the exact bytes, so a change to
a usage line, an error message or an exit code shows up.  Help text and
argparse's messages differ between Python versions, so the bytes are
compared only on the Python version that wrote the file; elsewhere the
exit code and which streams are empty are compared.  Runs use an
80-column terminal, as argparse wraps help to the terminal width.
A deliberate change regenerates the file with

    PYTHONPATH=src python tests/test_usage_golden.py

and the change has to be explained where it is made.
"""

import json
import sys
from pathlib import Path

import pytest

from conftest import run_cli
from test_cli import USAGE_ERRORS

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "usage_golden.json"
PYTHON = "%d.%d" % sys.version_info[:2]

RUNS = USAGE_ERRORS + [
    ["--help"],
    ["-h", "verify"],
    ["verify", "--help"],
    ["euler", "--help"],
    ["verify", "--bogus", "1", "-h"],
    ["verify", "--identity", "eq4", "stray"],
    ["verify", "--identity", "eq4", "--params", "n=1,x=1", "stray", "--bogus"],
    ["--n", "2", "euler"],
    ["verify", "--identity=eq4", "--bogus", "1"],
    ["verify", "--identity=eq99"],
    ["verify", "--identity=eq4", "--variant=corrected"],
    ["qeuler", "--n", "1", "--x", "spam"],
    ["qeuler", "--n", "1", "--x=-1/2"],
    ["qeuler", "--n", "1", "--x", "-1/2"],
    ["qeuler", "--n", "1", "--x=-1/2", "--bogus", "1"],
    ["qeuler", "--n", "1", "--x", "-1/2", "--al", "2"],
    ["oracle", "--integrand", "one", "--level", "2", "--q=-2/3", "--p=three"],
]


def run(args: list) -> dict:
    result = run_cli(args, env={"COLUMNS": "80"})
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    return {"exit": result.exit_code, "stdout": result.stdout, "stderr": result.stderr}


def shape(entry: dict) -> tuple:
    return entry["exit"], entry["stdout"] == "", entry["stderr"] == ""


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


def test_the_run_list_matches_the_golden_file(golden):
    assert sorted(" ".join(args) for args in RUNS) == sorted(golden["runs"])


@pytest.mark.parametrize("args", RUNS, ids=" ".join)
def test_output_matches_golden(golden, args):
    want, got = golden["runs"][" ".join(args)], run(args)
    if PYTHON == golden["python"]:
        assert got == want
    else:
        assert shape(got) == shape(want)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    runs = {" ".join(args): run(args) for args in RUNS}
    GOLDEN_PATH.write_text(json.dumps({"python": PYTHON, "runs": runs}, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
