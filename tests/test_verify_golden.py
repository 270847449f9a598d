"""Golden digests of `qde verify` output over a fixed set of runs.

Each run is one `qde verify` invocation.  Its digest is the SHA-256 of
the report lines with the elapsed_ms field removed, followed by the
exit code, so any change to a report byte, to the order of the reports
or to the exit code shows up.  Digests rather than text keep the data
file small; the whole dump is about 300 KB.

A deliberate output change regenerates the file with

    PYTHONPATH=src python tests/test_verify_golden.py

and the change has to be explained where it is made.
"""

import hashlib
import json
import re
import sys
from pathlib import Path

from conftest import run_cli

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "verify_golden.json"

IDENTITY_IDS = ("eq4", "eq5", "eq6", "eq7", "eq8", "numbers", "recursion", "theorem1")
ELAPSED = re.compile(r'"elapsed_ms":\d+,')


def golden_runs() -> list:
    """The argument lists after `qde verify`, one per run."""
    runs = []
    for identity in IDENTITY_IDS:
        for mode in ("symbolic", "rational:q=4", "padic:p=3,K=32"):
            runs.append(["--identity", identity, "--mode", mode])
    # a q with a denominator and a negative q
    for identity in IDENTITY_IDS:
        for mode in ("rational:q=1/2", "rational:q=-2/3"):
            runs.append(["--identity", identity, "--mode", mode])
    for identity in ("eq6", "eq8", "recursion", "theorem1"):
        for mode in ("padic:p=5,K=128", "rational:q=6"):
            runs.append(["--identity", identity, "--params", "p=5", "--mode", mode])
    for identity in ("eq5", "eq7"):
        for mode in ("padic:p=5,K=128", "symbolic"):
            runs.append(["--identity", identity, "--params", "x=1/2", "--mode", mode])
    # a negative x: the inner arguments (x + a)/d change sign within one residue split
    for identity in ("eq5", "eq7"):
        for params, mode in (("x=-1/3", "symbolic"), ("x=-2", "symbolic"),
                             ("x=-1", "rational:q=-2"), ("x=-5/2", "padic:p=3,K=32")):
            runs.append(["--identity", identity, "--params", params, "--mode", mode])
    # the p-adic residue splits and theorem1's sums at a high and a low K
    for mode, p, n_mod, points in (
        ("padic:p=3,K=128", 3, 3, ("m=1,h=1,k=2", "m=3,h=2,k=5", "m=5,h=1,k=7")),
        ("padic:p=5,K=16", 5, 5, ("m=3,h=2,k=3", "m=3,h=1,k=2")),
    ):
        for identity in ("eq5", "eq7"):
            for params in ("x=0", "x=1/2"):
                runs.append(["--identity", identity, "--params", params, "--mode", mode])
        runs.append(["--identity", "eq8", "--params", f"p={p}", "--mode", mode])
        runs.append(["--identity", "recursion", "--params", f"p={p},N={n_mod}", "--mode", mode])
        for point in points:
            runs.append(["--identity", "theorem1", "--params", f"{point},p={p}", "--mode", mode])
    return runs


def run_digest(args: list) -> str:
    result = run_cli(["verify"] + args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    lines = [ELAPSED.sub("", line) for line in result.output.splitlines()]
    text = "\n".join(lines) + f"\nexit={result.exit_code}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict:
    return {" ".join(args): run_digest(args) for args in golden_runs()}


def test_verify_output_matches_golden_digests():
    want = json.loads(GOLDEN_PATH.read_text())
    got = current_digests()
    assert sorted(got) == sorted(want), "the run list and the golden file disagree"
    changed = [run for run in want if got[run] != want[run]]
    assert not changed, "verify output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
