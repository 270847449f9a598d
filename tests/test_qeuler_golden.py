"""Golden digests of `qde qeuler` output over a fixed set of runs.

Each run is one `qde qeuler` invocation at n <= 6 and alpha <= 3: in the
default symbolic mode, whose scale is x's denominator, at
x in {0, 3, 1/3, 2/5, -1}, plus the runs at x = 2/5 with the scale
forced to 15; and in p-adic mode at p = 3, K = 32 and p = 5, K = 128, at
x in {0, 3, 1/2, 2/5, -1, 1/3}.  At p = 3 the x = 1/3 runs, and at
p = 5 the x = 2/5 runs, have p in x's denominator: from n = 1 on they
exit 1 with an ExponentError on stderr.  At n <= 4 and alpha <= 2 it
also runs p = 3, K = 128 and p = 5, K = 32 at x in {-1/2, -2/7, 3/4,
5/7}: fractional powers of q with a negative numerator, and with the
denominators 4 and 7.  Each run's digest is the SHA-256 of stdout
followed by the exit code, so any change to a value, its rendering or
the exit code shows up.
A deliberate output change regenerates the file with

    PYTHONPATH=src python tests/test_qeuler_golden.py

and the change has to be explained where it is made.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from conftest import run_cli

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "qeuler_golden.json"

# (mode, the golden x with p in its denominator)
PADIC_MODES = {"padic:p=3,K=32": "1/3", "padic:p=5,K=128": "2/5"}
# the other precision at each prime, at fractional x with a negative numerator or a new denominator
FRACTION_MODES = ("padic:p=3,K=128", "padic:p=5,K=32")
FRACTION_XS = ("-1/2", "-2/7", "3/4", "5/7")


def golden_runs() -> list:
    """The argument lists after `qde qeuler`, one per run."""
    runs = []
    for n in range(7):
        for alpha in (1, 2, 3):
            head = ["--n", str(n), "--alpha", str(alpha)]
            # written --x=<value>, as the golden file names the runs
            for x in ("0", "3", "1/3", "2/5", "-1"):
                runs.append(head + [f"--x={x}"])
            runs.append(head + ["--x=2/5", "--mode", "symbolic:scale=15"])
    for mode in PADIC_MODES:
        for n in range(7):
            for alpha in (1, 2, 3):
                for x in ("0", "3", "1/2", "2/5", "-1", "1/3"):
                    runs.append(["--n", str(n), "--alpha", str(alpha), f"--x={x}", "--mode", mode])
    for mode in FRACTION_MODES:
        for n in range(5):
            for alpha in (1, 2):
                for x in FRACTION_XS:
                    runs.append(["--n", str(n), "--alpha", str(alpha), f"--x={x}", "--mode", mode])
    return runs


def run_digest(args: list) -> str:
    result = run_cli(["qeuler"] + args)
    if result.exception is not None and not isinstance(result.exception, SystemExit):
        raise result.exception
    text = result.stdout + f"exit={result.exit_code}\n"
    return hashlib.sha256(text.encode()).hexdigest()


def current_digests() -> dict:
    return {" ".join(args): run_digest(args) for args in golden_runs()}


def test_qeuler_output_matches_golden_digests():
    want = json.loads(GOLDEN_PATH.read_text())
    got = current_digests()
    assert sorted(got) == sorted(want), "the run list and the golden file disagree"
    changed = [run for run in want if got[run] != want[run]]
    assert not changed, "qeuler output changed for: " + "; ".join(changed)


def test_padic_runs_with_p_in_the_denominator_are_exponent_errors():
    for mode, x in PADIC_MODES.items():
        p = mode.split(",")[0].split("=")[1]
        for n in (0, 1, 6):
            result = run_cli(["qeuler", "--n", str(n), "--alpha", "2", f"--x={x}", "--mode", mode])
            if n == 0:
                # E_0(x) forms no q^(alpha l x) with l > 0
                assert result.exit_code == 0
            else:
                assert result.exit_code == 1
                assert result.stderr == f"error: exponent {Fraction(2) * Fraction(x)} is not a {p}-adic integer\n"


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
