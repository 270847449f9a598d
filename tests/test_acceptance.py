"""Acceptance gate: nine end-to-end guarantees, one verdict line each.

Each test prints ACCEPTANCE <k> (<what>): PASS/FAIL with capture
suspended so the line shows up in the live pytest output.  Criteria 4
and 6 persist their evidence under reports/ as JSON for later
inspection.

Numeric tolerances: exact modes must match structurally.  Single-kernel
p-adic checks allow PASS_SLACK = 4 digits of loss against the working
precision (worst observed: 3).  The main-relation pipeline multiplies
several valuation-carrying brackets, which costs a fixed number of
absolute digits independent of K; its slack is THEOREM_SLACK = 6
(worst observed: 5, constant across K = 16, 32, 48, with the
difference indistinguishable from zero at every available digit).
"""

import json
import random
from contextlib import contextmanager
from fractions import Fraction
from math import gcd
from pathlib import Path

from conftest import run_cli

from qde.catalog import check
from qde.dedekind import dc_sum, q_dc_sum
from qde.oracle import IntegrandSpec, convergence_profile
from qde.padic import PadicConfig, PadicNum, agreement_valuation, q_pow, teichmuller
from qde.qeuler import (
    PadicMode,
    RationalMode,
    SymbolicMode,
    euler_classical,
    measure,
    qeuler_poly,
)
from qde.ratfunc import RatFunc

PASS_SLACK = 4
THEOREM_SLACK = 6
REPORTS_DIR = Path(__file__).resolve().parent.parent / "reports"
SYM = SymbolicMode()


@contextmanager
def acceptance(num, label, capsys):
    def emit(outcome):
        with capsys.disabled():
            print(f"\nACCEPTANCE {num} ({label}): {outcome}", flush=True)

    try:
        yield
    except BaseException:
        emit("FAIL")
        raise
    emit("PASS")


def save_report(name, payload):
    REPORTS_DIR.mkdir(exist_ok=True)
    (REPORTS_DIR / name).write_text(json.dumps(payload, indent=1, sort_keys=True) + "\n")


def test_acceptance_1_additive_expansion(capsys):
    with acceptance(1, "closed form matches additive expansion", capsys):
        for n in range(7):
            for alpha in (1, 2, 3):
                for x in range(4):
                    report = check("eq4", "printed", {"n": n, "alpha": alpha, "x": x}, SYM)
                    assert report.status == "exact", (n, alpha, x, report.status)


def test_acceptance_2_classical_limits(capsys):
    with acceptance(2, "q to 1 limits recover the classical polynomials", capsys):
        for n in range(9):
            for alpha in (1, 2):
                for x in (Fraction(0), Fraction(1, 2), Fraction(1, 3), Fraction(2)):
                    mode = SymbolicMode(x.denominator)
                    lim = mode.limit_at_one(qeuler_poly(n, alpha, x, mode).value)
                    assert lim == euler_classical(n)(x), (n, alpha, x)


def test_acceptance_3_measure_laws(capsys):
    with acceptance(3, "measure mass and cell additivity", capsys):
        for p in (3, 5):
            for level in (1, 2):
                total = sum(measure(a, level, SYM, p).value for a in range(p**level))
                assert total == RatFunc.one(), (p, level)
            for level in (1, 2):
                for a in range(p**level):
                    split = sum(
                        measure(a + j * p**level, level + 1, SYM, p).value for j in range(p)
                    )
                    assert split == measure(a, level, SYM, p).value, (p, level, a)


def test_acceptance_4_variant_resolver(capsys):
    with acceptance(4, "variant resolver picks a unique corrected reading", capsys):
        grid = [
            (n, alpha, d)
            for n in range(4)
            for alpha in (1, 2)
            for d in (1, 3, 5)
        ]
        checks = []
        survivors = {"printed", "corrected"}
        failed_somewhere = set()
        for variant in ("printed", "corrected"):
            for n, alpha, d in grid:
                point = {"n": n, "alpha": alpha, "d": d, "x": 0}
                for identity in ("eq5", "eq7"):
                    report = check(identity, variant, point, SymbolicMode(d))
                    checks.append(report.comparison_payload())
                    if report.status != "exact":
                        survivors.discard(variant)
                        failed_somewhere.add(variant)
        assert survivors == {"corrected"}, survivors
        assert failed_somewhere == {"printed"}
        save_report(
            "acceptance4_resolver.json",
            {
                "grid": {"n": list(range(4)), "alpha": [1, 2], "d": [1, 3, 5], "x": "0"},
                "checks": checks,
                "passing_everywhere": sorted(survivors),
                "verdict": "corrected",
            },
        )


def test_acceptance_5_classical_sum_recovered(capsys):
    with acceptance(5, "classical sum recovered at h=1, defect recorded", capsys):
        assert dc_sum(1, 1, 2) == 0
        assert dc_sum(1, 1, 3) == Fraction(-1, 6)
        assert dc_sum(1, 2, 3) == Fraction(-1, 18)
        for m, k in [(1, 2), (1, 3), (2, 3), (3, 2), (1, 5), (2, 5)]:
            lim = SYM.limit_at_one(q_dc_sum(m, 1, k, 1, k, SYM).value)
            assert lim == dc_sum(m, 1, k), (m, k)
        # at h > 1 the limit genuinely departs from the classical sum;
        # this point records the defect instead of hiding it
        defect = SYM.limit_at_one(q_dc_sum(1, 2, 3, 1, 3, SYM).value)
        assert defect == Fraction(1, 6)
        assert defect != dc_sum(1, 2, 3)


MAIN_POINTS = [(3, 1, 1, 2), (3, 3, 1, 4), (5, 3, 2, 3)]


def test_acceptance_6_main_relation(capsys):
    with acceptance(6, "main relation exact and p-adically stable", capsys):
        evidence = []
        for p, m, h, k in MAIN_POINTS:
            point = {"m": m, "h": h, "k": k, "alpha": 1, "p": p}
            rational = check("theorem1", "corrected", point, RationalMode(1 + p))
            assert rational.status == "exact", (p, m, h, k, rational.status)
            agreements = {}
            for prec in (16, 32):
                cfg = PadicConfig(p, prec)
                q = PadicNum.from_rational(Fraction(1 + p), p, prec)
                report = check("theorem1", "corrected", point, PadicMode(q, cfg))
                assert report.passed, (p, m, h, k, prec, report.status)
                got = prec if report.status == "exact" else report.status["padic_agreement"]
                assert got >= prec - THEOREM_SLACK, (p, m, h, k, prec, got)
                agreements[prec] = got
            assert agreements[32] >= agreements[16], agreements
            evidence.append(
                {
                    "point": {"p": p, "m": m, "h": h, "k": k, "alpha": 1},
                    "rational_q": str(1 + p),
                    "rational_status": "exact",
                    "padic_agreement": {str(K): v for K, v in agreements.items()},
                }
            )
        save_report("acceptance6_theorem1.json", {"points": evidence, "slack": THEOREM_SLACK})


def test_acceptance_7_oracle_convergence(capsys):
    with acceptance(7, "definition-level sums converge to the closed forms", capsys):
        mode = RationalMode(4)
        pinned = {
            "constant": (IntegrandSpec.q_power(0), [None, None, None, None]),
            "bracket": (IntegrandSpec.bracket_power(1), [1, 2, 3, 4]),
            "bracket_sq": (IntegrandSpec.bracket_power(2), [1, 2, 3, 4]),
            "q_sq": (IntegrandSpec.q_power(2), [2, 3, 4, 5]),
        }
        for name, (f, want) in pinned.items():
            rows = convergence_profile(f, [1, 2, 3, 4], mode, 3)
            got = [row["valuation"] for row in rows]
            assert got == want, (name, got)
            if name != "constant":
                assert all(b > a for a, b in zip(got, got[1:])), name
                assert got[3] - got[0] >= 3, name


def test_acceptance_8_character_and_exponential(capsys):
    with acceptance(8, "character and exponential laws at working precision", capsys):
        for p in (3, 5, 7):
            cfg = PadicConfig(p, 32)
            units = range(1, p)
            for a in units:
                w = teichmuller(a, cfg)
                assert w.lift(1) == a
                assert (w ** (p - 1)).lift(32) == 1
            for a in units:
                for b in units:
                    prod = teichmuller(a, cfg) * teichmuller(b, cfg)
                    assert agreement_valuation(prod, teichmuller(a * b, cfg)) >= 32 - PASS_SLACK
            q = PadicNum.from_rational(Fraction(1 + p), p, 32)
            rng = random.Random(20260818 + p)
            dens = [d for d in (1, 2, 3, 4, 5, 6) if gcd(d, p) == 1]
            for _ in range(100):
                x = Fraction(rng.randint(-20, 20), rng.choice(dens))
                y = Fraction(rng.randint(-20, 20), rng.choice(dens))
                lhs = q_pow(q, x, cfg) * q_pow(q, y, cfg)
                rhs = q_pow(q, x + y, cfg)
                assert agreement_valuation(lhs, rhs) >= 32 - PASS_SLACK, (p, x, y)


def test_acceptance_9_command_line(capsys):
    with acceptance(9, "command line end to end", capsys):
        res = run_cli(["verify", "--identity", "eq4", "--params", "n<=6,alpha<=3,x<=3"])
        assert res.exit_code == 0, res.output

        res = run_cli(["verify", "--identity", "eq5", "--params", "n=1,alpha=1,d=3,x=0"])
        assert res.exit_code == 1
        by_variant = {}
        for line in res.output.splitlines():
            obj = json.loads(line)
            by_variant[obj["variant"]] = obj["status"]
        assert by_variant["corrected"] == "exact"
        assert "fail" in by_variant["printed"]

        res = run_cli(
            ["verify", "--identity", "theorem1", "--variant", "corrected", "--params", "p=3,m=1,h=1,k=2"]
        )
        assert res.exit_code == 0, res.output

        def stripped(result):
            out = []
            for line in result.output.splitlines():
                obj = json.loads(line)
                obj.pop("elapsed_ms", None)
                out.append(obj)
            return out

        args = ["verify", "--identity", "eq8", "--params", "m<=2,a=1,N=2,p=3"]
        assert stripped(run_cli(args)) == stripped(run_cli(args))
