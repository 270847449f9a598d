"""Golden digests of the p-adic power and binomial-series values.

Pins the repr of 400 values at (p, K) in {(3,16), (3,32), (5,32), (3,128)},
with q = 1 + p in every case:

- interp_series at s in {0, 1, 2, 3, 5, 1/2, -1/2, 3/4, p-adic 2,
  p-adic 1/2}, units a in {1, 2, 4} and (N, J) in {(p,4), (2p,6), (p,2)};
- q_pow(q, x) at x in {1/2, -3/2, 2/7, p-adic 5};
- PadicMode(q).q_power(e) at e in {0, 1, 7, -3, 1/2, 5/4}.

and 56 more at (p, K) in {(3,32), (5,32)} with q = 1 + p given to 20
digits and to 40, fewer than K and more:

- interp_series at s in {2, 1/2} and (N, J) in {(p,4), (2p,6)}, a = 2;
- q_int(x, alpha) at x in {0, 1, 2, p, 7} and alpha in {1, 3}.

The repr shows unit, valuation and absolute precision, so a digest
changes with any digit or with the precision a value claims.  A
deliberate change regenerates the file with

    PYTHONPATH=src python tests/test_series_golden.py

and the change has to be explained where it is made.
"""

import hashlib
import json
import sys
from fractions import Fraction
from pathlib import Path

from qde.dedekind import interp_series
from qde.padic import PadicConfig, PadicNum, q_pow
from qde.qeuler import PadicMode, q_int

GOLDEN_PATH = Path(__file__).resolve().parent / "data" / "series_golden.json"

CONFIGS = ((3, 16), (3, 32), (5, 32), (3, 128))


def golden_values():
    """(name, thunk) pairs, one per pinned value."""
    cases = []
    for p, prec in CONFIGS:
        cfg = PadicConfig(p, prec)
        q = PadicNum.from_rational(1 + p, p, prec)
        at = f"p={p} K={prec}"
        exponents = [
            (str(s), s) for s in (0, 1, 2, 3, 5, Fraction(1, 2), Fraction(-1, 2), Fraction(3, 4))
        ] + [(f"padic {s}", PadicNum.from_rational(s, p, prec)) for s in (2, Fraction(1, 2))]
        for label, s in exponents:
            for a in (1, 2, 4):
                for n_mod, j_trunc in ((p, 4), (2 * p, 6), (p, 2)):
                    cases.append((
                        f"interp_series {at} s={label} a={a} N={n_mod} J={j_trunc}",
                        lambda s=s, a=a, n_mod=n_mod, j_trunc=j_trunc, q=q, cfg=cfg:
                            interp_series(s, a, n_mod, j_trunc, 1, q, cfg),
                    ))
        for label, x in (
            ("1/2", Fraction(1, 2)), ("-3/2", Fraction(-3, 2)), ("2/7", Fraction(2, 7)),
            ("padic 5", PadicNum.from_rational(5, p, prec)),
        ):
            cases.append((f"q_pow {at} x={label}", lambda x=x, q=q, cfg=cfg: q_pow(q, x, cfg)))
        mode = PadicMode(q, cfg)
        for e in (0, 1, 7, -3, Fraction(1, 2), Fraction(5, 4)):
            cases.append((f"q_power {at} e={e}", lambda e=e, mode=mode: mode.q_power(e)))
    for p, prec in ((3, 32), (5, 32)):
        cfg = PadicConfig(p, prec)
        for q_prec in (20, 40):
            q = PadicNum.from_rational(1 + p, p, q_prec)
            at = f"p={p} K={prec} q to {q_prec}"
            for s in (2, Fraction(1, 2)):
                for n_mod, j_trunc in ((p, 4), (2 * p, 6)):
                    cases.append((
                        f"interp_series {at} s={s} a=2 N={n_mod} J={j_trunc}",
                        lambda s=s, n_mod=n_mod, j_trunc=j_trunc, q=q, cfg=cfg:
                            interp_series(s, 2, n_mod, j_trunc, 1, q, cfg),
                    ))
            mode = PadicMode(q, cfg)
            for x in (0, 1, 2, p, 7):
                for alpha in (1, 3):
                    cases.append((
                        f"q_int {at} x={x} alpha={alpha}",
                        lambda x=x, alpha=alpha, mode=mode: q_int(x, alpha, mode),
                    ))
    return cases


def current_digests() -> dict:
    return {name: hashlib.sha256(repr(thunk()).encode()).hexdigest() for name, thunk in golden_values()}


def test_series_values_match_golden_digests():
    want = json.loads(GOLDEN_PATH.read_text())
    got = current_digests()
    assert len(got) == 456
    assert sorted(got) == sorted(want), "the value list and the golden file disagree"
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, "values changed for: " + "; ".join(changed)


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    GOLDEN_PATH.write_text(json.dumps(current_digests(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}", file=sys.stderr)
