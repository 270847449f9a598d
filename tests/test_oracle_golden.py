"""Golden digests of `qde oracle` output over a fixed set of profiles.

Each run is one `qde oracle` invocation.  Its digest is the SHA-256 of
the printed line followed by the exit code, so any change to a profile
valuation, to the payload or to the exit code shows up.

A deliberate output change regenerates the file with

    PYTHONPATH=src python tests/test_oracle_golden.py

and the change has to be explained where it is made.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from conftest import run_cli

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "oracle_golden.json"

# q = 1/2, -2/3 and -2 pin a q with a denominator and a negative q
PROFILES = (
    (3, 4, 6), (5, 6, 4), (3, 7, 5), (7, 8, 3),
    (3, Fraction(1, 2), 4), (5, Fraction(-2, 3), 3), (3, -2, 5),
)
INTEGRANDS = (
    "one", "bracket:n=1", "bracket:n=2", "bracket:n=3,alpha=2",
    "bracket:n=1,x=1/2", "qpow:e=2", "qpow:e=5,l=2",
)


def golden_runs() -> list:
    """The argument lists after `qde oracle`, one per run."""
    return [
        ["--integrand", integrand, "--p", str(p), "--q", str(q), "--level", str(level)]
        for p, q, level in PROFILES
        for integrand in INTEGRANDS
    ]


def run_digest(args: list) -> str:
    result = run_cli(["oracle"] + args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    text = result.output + f"exit={result.exit_code}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict:
    return {" ".join(args): run_digest(args) for args in golden_runs()}


def test_oracle_output_matches_golden_digests():
    want = json.loads(GOLDEN_PATH.read_text())
    got = current_digests()
    assert sorted(got) == sorted(want), "the run list and the golden file disagree"
    changed = [run for run in want if got[run] != want[run]]
    assert not changed, "oracle output changed for: " + "; ".join(changed)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
