"""The benchmark's workloads: which checks each one runs and what each must say.

A check is one verdict.  Identity checks go through the `qde verify`
command, one invocation per (identity, point, variant), so each verdict
is timed on its own from outside and the CLI contract is what is
measured.  Measure-law, Riemann-sum and series checks call the public
library functions.  Every call looks its target up on the module at call
time (`qde.measure`, not an imported name), so the tracer's wrappers see
it.

Each workload is a fixed core grid plus a seeded draw.  Core checks take
their expected verdict from `expected.json`, which `expect.py` writes
after checking every entry against the README rules.  Drawn checks come
only from pools whose answer is known by rule: corrected readings pass,
measure laws hold, Riemann sums of q-powers equal their geometric sum,
and oracle valuations rise with level.  expect.py runs every pool member
against its rule.  The pools hold checks of similar cost, so the seed
moves the inputs but hardly the amount of work.
"""

import io
import json
import random
from contextlib import redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from pathlib import Path
from typing import Callable, Optional

import qde
import qde.cli

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# p-adic single-kernel checks may lose this many digits below K (README, Tests)
PASS_SLACK = 4


@dataclass(frozen=True)
class Check:
    """One verdict to compute and the rule its answer must follow.

    rule is the verdict the README rule behind the check allows, as a
    spec for satisfies(): "pass", "fail", "error", "pass|fail" where the
    rule leaves both open, "rising" or an exact "profile=..." for oracle
    profiles.  expect is the verdict a run must give: None for core
    checks until build() fills it in from expected.json.  precision is
    the working K of a p-adic identity check, whose digit loss counts
    toward padic_digits_lost_max.
    """

    id: str
    run: Callable[[], str]
    rule: str
    expect: Optional[str] = None
    precision: Optional[int] = None


def satisfies(verdict: str, spec: str) -> bool:
    """Does a verdict meet an expected spec (alternatives split on '|')?"""
    for alt in spec.split("|"):
        if alt.startswith("agree>="):
            need = int(alt[len("agree>="):])
            if verdict == "exact" or (verdict.startswith("agree=") and int(verdict[len("agree="):]) >= need):
                return True
        elif alt == "pass":
            if verdict == "exact" or verdict.startswith("agree="):
                return True
        elif alt == "rising":
            if verdict.startswith("profile="):
                vals = verdict[len("profile="):].split(",")
                if all(v.lstrip("-").isdigit() for v in vals):
                    nums = [int(v) for v in vals]
                    if all(b > a for a, b in zip(nums, nums[1:])):
                        return True
        elif verdict == alt:
            return True
    return False


def table_spec(verdict: str, precision: Optional[int]) -> str:
    """The expected-table entry recorded for a seed verdict.

    A p-adic verdict becomes a floor on agreement: later code may keep
    more digits, never fewer.  An exact p-adic hit records the floor K.
    """
    if verdict.startswith("agree="):
        return "agree>=" + verdict[len("agree="):]
    if verdict == "exact" and precision is not None:
        return f"agree>={precision}"
    return verdict


def load_expected() -> dict:
    return json.loads(EXPECTED_PATH.read_text())


# --- check builders ----------------------------------------------------------

def _invoke(args):
    """Run one qde command in this process; (exit code, what it printed)."""
    out = io.StringIO()
    code = 0
    with redirect_stdout(out):
        try:
            qde.cli.main.main(args=args, prog_name="qde", standalone_mode=False)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue()


def _cli_json(args):
    """Run one qde command that prints one JSON document; (exit code, document)."""
    code, text = _invoke(args)
    return code, (json.loads(text) if code == 0 else None)


def _verdict_from_report(line: str, code) -> str:
    status = json.loads(line)["status"]
    if status == "exact":
        verdict = "exact"
    elif isinstance(status, dict) and "padic_agreement" in status:
        verdict = f"agree={status['padic_agreement']}"
    elif isinstance(status, dict) and isinstance(status.get("fail"), dict) and "error" in status["fail"]:
        verdict = "error"
    else:
        verdict = "fail"
    passed = verdict == "exact" or verdict.startswith("agree=")
    if code != (0 if passed else 1):
        return f"exit={code}"
    return verdict


def verify(identity: str, variant: str, params: str, mode: str, rule: str,
           expect: Optional[str] = None, precision: Optional[int] = None) -> Check:
    """One `qde verify` invocation that must print exactly one report."""
    args = ["verify", "--identity", identity, "--variant", variant, "--params", params, "--mode", mode]

    def run() -> str:
        code, text = _invoke(args)
        lines = text.splitlines()
        if len(lines) != 1:
            return f"lines={len(lines)}"
        return _verdict_from_report(lines[0], code)

    return Check(f"verify {identity} {variant} {params} @{mode}", run, rule, expect, precision)


def oracle(integrand: str, p: int, q: int, level: int, rule: str, expect: Optional[str] = None) -> Check:
    """One `qde oracle` profile, read back as its list of valuations."""
    args = ["oracle", "--integrand", integrand, "--p", str(p), "--q", str(q), "--level", str(level)]

    def run() -> str:
        code, doc = _cli_json(args)
        if code != 0:
            return f"exit={code}"
        rows = doc["profile"]
        return "profile=" + ",".join("-" if r["valuation"] is None else str(r["valuation"]) for r in rows)

    return Check(f"oracle {integrand} p={p} q={q} level<={level}", run, rule, expect)


def warm_up() -> None:
    """Finish lazy first-call set-up: one small check in every coefficient mode."""
    for mode in ("symbolic", "rational:q=4", "padic:p=3,K=32"):
        verdict = verify("eq4", "printed", "n=1,alpha=1,x=1", mode, "pass").run()
        if not satisfies(verdict, "pass"):
            raise RuntimeError(f"warm-up check failed in mode {mode}: {verdict}")


def euler_table(top: int) -> Check:
    """`qde euler --n top`, each row held to the defining E_n(x) + E_n(x+1) = 2 x^n."""
    def run() -> str:
        code, rows = _cli_json(["euler", "--n", str(top)])
        if code != 0:
            return f"exit={code}"
        for row in rows:
            coeffs = [Fraction(c) for c in row["coefficients"]]
            n = row["n"]
            for x in (Fraction(0), Fraction(1, 2)):
                at = sum(c * x**i for i, c in enumerate(coeffs)) + sum(c * (x + 1)**i for i, c in enumerate(coeffs))
                if at != 2 * x**n:
                    return "fail"
        return "exact"

    return Check(f"euler n<={top}", run, "pass")


def dc_value(m: int, h: int, k: int, want: str) -> Check:
    """`qde dcsum` at a point whose classical value is pinned (README, acceptance 5)."""
    def run() -> str:
        code, doc = _cli_json(["dcsum", "--m", str(m), "--h", str(h), "--k", str(k)])
        if code != 0:
            return f"exit={code}"
        return "exact" if doc["value"] == want else "fail"

    return Check(f"dcsum m={m} h={h} k={k}", run, "pass")


def _same(lhs, rhs) -> str:
    return "exact" if lhs == rhs else "fail"


def measure_mass(p: int, level: int) -> Check:
    """Total mass: the measures of all residue discs at one level sum to 1."""
    def run() -> str:
        sym = qde.SymbolicMode()
        total = qde.RatFunc.zero()
        for a in range(p**level):
            total = total + qde.measure(a, level, sym, p).value
        return _same(total, qde.RatFunc.one())

    return Check(f"measure mass p={p} level={level}", run, "pass")


def measure_cell(p: int, level: int, a: int) -> Check:
    """Cell additivity: a disc's mass is the sum of its p children."""
    def run() -> str:
        sym = qde.SymbolicMode()
        split = qde.RatFunc.zero()
        for j in range(p):
            split = split + qde.measure(a + j * p**level, level + 1, sym, p).value
        return _same(split, qde.measure(a, level, sym, p).value)

    return Check(f"measure cell p={p} level={level}->{level + 1} a={a}", run, "pass")


def riemann_qpow(e: int, l: int, p: int, level: int, expect: Optional[str] = None) -> Check:
    """A symbolic level sum of q^(e xi) at base q^l against its geometric sum.

    With N = p^level odd, the definition of the measure gives
    sum_a (-1)^a Q^((e+1) a) (1+Q)/(1+Q^N) = (1+Q)(1+Q^((e+1)N)) / ((1+Q^N)(1+Q^(e+1)))
    for Q = q^l.
    """
    n = p**level

    def run() -> str:
        lifted = qde.BaseLifted(qde.SymbolicMode(), l)
        got = qde.riemann_level(qde.IntegrandSpec.q_power(e, l), level, qde.SymbolicMode(), p).value
        one = lifted.from_rational(1)
        want = (one + lifted.q_power(1)) * (one + lifted.q_power((e + 1) * n)) / (
            (one + lifted.q_power(n)) * (one + lifted.q_power(e + 1))
        )
        return _same(got, want)

    return Check(f"riemann qpow e={e} l={l} p={p} level={level}", run, "pass", expect)


def series_half(p: int, k: int, a: int) -> Check:
    """interp_series at s = 1/2, truncated at J and 2J with J = K/4.

    The shorter sum carries an approximate zero bounding its tail, so
    the two must agree to its whole absolute precision.
    """
    j = k // 4

    def run() -> str:
        cfg = qde.PadicConfig(p, k)
        q = qde.PadicNum.from_rational(1 + p, p, k)
        lo = qde.interp_series(Fraction(1, 2), a, p, j, 1, q, cfg)
        hi = qde.interp_series(Fraction(1, 2), a, p, 2 * j, 1, q, cfg)
        diff = lo - hi
        if diff.is_exact_zero:
            return "exact"
        if diff.is_zero and diff.valuation >= lo.abs_prec:
            return f"agree={int(diff.valuation)}"
        return "fail"

    return Check(f"interp_series s=1/2 a={a} N={p} J={j},{2 * j} p={p} K={k}", run, "pass")


# --- grids -------------------------------------------------------------------

def _points(**axes):
    """'k=v,...' parameter strings over the product of the axes, in order."""
    keys = list(axes)
    for combo in product(*(axes[k] for k in keys)):
        yield ",".join(f"{k}={v}" for k, v in zip(keys, combo))


def _printed_rule(identity: str, params: str, mode: str) -> str:
    """What the README says a printed reading does at this point.

    Printed and corrected readings coincide at modulus d = 1 (eq5, eq7)
    and, for theorem1, at degree m = 1, so printed passes there; theorem1
    splits from m = 2 on.  A rational q cannot represent eq5's printed
    inner exponents alpha*l*(x+a)/d, which is an ExponentError unless
    n = 0 leaves only the exponent 0.  Elsewhere printed fails exactly
    where the readings split, which the check itself decides.
    """
    pt = dict(kv.split("=") for kv in params.split(","))
    if identity in ("eq5", "eq7") and pt["d"] == "1":
        return "pass"
    if identity == "eq5" and mode.startswith("rational") and pt["n"] != "0":
        return "error"
    if identity == "theorem1":
        return "pass" if pt["m"] == "1" else "fail"
    return "pass|fail"


def _identity(identity: str, variants, params: str, mode: str, precision: Optional[int] = None):
    for variant in variants:
        if variant == "printed" and identity not in ("eq4", "eq6"):
            rule = _printed_rule(identity, params, mode)
        else:
            rule = "pass"
        yield verify(identity, variant, params, mode, rule, precision=precision)


BOTH = ("printed", "corrected")


def sym_grid_core():
    for identity in ("eq5", "eq7"):
        for params in _points(n=range(4), alpha=(1, 2), d=(1, 3, 5), x=(0,)):
            yield from _identity(identity, BOTH, params, "symbolic")
    for params in _points(n=range(7), alpha=(1, 2, 3), x=range(4)):
        yield from _identity("eq4", ("printed",), params, "symbolic")
    yield from _identity("theorem1", ("corrected",), "m=3,h=2,k=5,p=3", "symbolic")


def sym_grid_pool():
    for params in _points(n=(1, 2), alpha=(1, 2), d=(3,), x=(1, 2)):
        yield verify("eq7", "corrected", params, "symbolic", "pass", "exact")
    for params in _points(n=(1,), alpha=(1,), d=(3,), x=(1, 2)):
        yield verify("eq5", "corrected", params, "symbolic", "pass", "exact")
    for params in _points(m=(1,), a=(1, 2), N=(2, 3), p=(3,)):
        yield verify("eq8", "corrected", params, "symbolic", "pass", "exact")
    for params in _points(m=(1,), a=(1, 2), N=(3,), p=(3,)):
        yield verify("recursion", "corrected", params, "symbolic", "pass", "exact")
    yield verify("theorem1", "corrected", "m=1,h=1,k=2,p=3", "symbolic", "pass", "exact")


def sym_measure_core():
    for p, top in ((3, 3), (5, 2)):
        for level in range(1, top + 1):
            yield measure_mass(p, level)
            for a in range(p**level):
                yield measure_cell(p, level, a)
    for p, level in ((3, 2), (3, 3), (5, 2)):
        for e in (0, 1, 2):
            yield riemann_qpow(e, 1, p, level)


def sym_measure_pool():
    for e in range(3, 9):
        yield riemann_qpow(e, 1, 3, 3, "exact")


SANITY_K = (16, 32, 64, 128)
SANITY_POINT = "m=3,h=2,k=5"


def padic_mode(p: int, k: int) -> str:
    return f"padic:p={p},K={k}"


def sanity_ids() -> list:
    """Check ids of the ROADMAP baseline row, in SANITY_K order."""
    return [f"verify theorem1 corrected {SANITY_POINT},p=3 @{padic_mode(3, k)}" for k in SANITY_K]


def padic_core():
    for k in (128, 32):
        for p in (3, 5):
            mode = padic_mode(p, k)
            for identity in ("eq5", "eq7"):
                for params in _points(n=range(4), alpha=(1, 2), d=(1, 3, 5), x=("1/2",)):
                    yield from _identity(identity, ("corrected",), params, mode, k)
            for params in _points(n=range(5), alpha=(1, 2), x=range(4)):
                yield from _identity("eq4", ("printed",), params, mode, k)
            for params in _points(m=range(3), a=(1, 2), N=(2, 3), p=(p,)):
                yield from _identity("eq8", BOTH, params, mode, k)
            for params in _points(m=range(3), a=(1, 2), N=(p,), p=(p,)):
                yield from _identity("recursion", BOTH, params, mode, k)
            points = ("m=1,h=1,k=2", "m=3,h=1,k=4", SANITY_POINT, "m=5,h=1,k=7") if p == 3 else ("m=3,h=2,k=3",)
            for point in points:
                yield from _identity("theorem1", BOTH, f"{point},p={p}", mode, k)
            for a in (1, 2):
                yield series_half(p, k, a)
    # the ROADMAP baseline row: theorem1 (3,2,5) at every K it quotes
    for k in SANITY_K:
        if k not in (128, 32):
            yield from _identity("theorem1", ("corrected",), f"{SANITY_POINT},p=3", padic_mode(3, k), k)


def padic_pool():
    for p, xs in ((3, ("1/4", "2/5", "5/7")), (5, ("1/3", "3/4", "2/7"))):
        for identity in ("eq5", "eq7"):
            for params in _points(n=(1, 2), alpha=(1, 2), d=(3,), x=xs):
                yield verify(identity, "corrected", params, padic_mode(p, 32), "pass",
                             f"agree>={32 - PASS_SLACK}", 32)


def _rational(p: int) -> str:
    return f"rational:q={1 + p}"


def rational_core():
    for params in _points(n=range(7), alpha=(1, 2, 3), x=range(5)):
        yield from _identity("eq4", ("printed",), params, "rational:q=4")
    for identity in ("eq5", "eq7"):
        for params in _points(n=range(4), alpha=(1, 2), d=(1, 3, 5, 7), x=(0, 1)):
            yield from _identity(identity, BOTH, params, "rational:q=4")
    for params in _points(m=(1, 3), h=(1, 2), k=(3,), alpha=(1,), p=(3,)):
        yield from _identity("eq6", ("printed",), params, _rational(3))
    for params in _points(m=(3,), h=(1, 2, 3, 4), k=(5,), alpha=(1,), p=(5,)):
        yield from _identity("eq6", ("printed",), params, _rational(5))
    for p in (3, 5):
        for params in _points(m=range(3), a=(1, 2, 3), N=(2, 3), p=(p,)):
            yield from _identity("eq8", BOTH, params, _rational(p))
        for params in _points(m=range(3), a=(1, 2), N=(p, 2 * p), p=(p,)):
            yield from _identity("recursion", BOTH, params, _rational(p))
    for p, point in ((3, "m=1,h=1,k=2"), (3, "m=1,h=2,k=5"), (3, "m=3,h=1,k=4"), (3, "m=3,h=2,k=5"),
                     (3, "m=5,h=1,k=7"), (5, "m=3,h=2,k=3"), (5, "m=3,h=1,k=2")):
        yield from _identity("theorem1", BOTH, f"{point},p={p}", _rational(p))
    yield euler_table(12)
    for m, h, k, want in ((1, 2, 3, "-1/18"), (1, 1, 3, "-1/6"), (1, 1, 2, "0")):
        yield dc_value(m, h, k, want)
    for p, q, level in ((3, 4, 6), (5, 6, 4)):
        # total mass 1 at every level: the constant's level sums hit the limit exactly
        yield oracle("one", p, q, level, "profile=" + ",".join("-" * level))
        for integrand in ("bracket:n=1", "bracket:n=2", "qpow:e=2"):
            yield oracle(integrand, p, q, level, "rising")


def rational_pool():
    for q in ("1/2", "-2"):
        mode = f"rational:q={q}"
        for identity in ("eq5", "eq7"):
            for params in _points(n=(1, 2, 3), alpha=(1, 2), d=(3, 5), x=(0, 1, 2)):
                yield verify(identity, "corrected", params, mode, "pass", "exact")
        for params in _points(m=(1, 2), a=(1, 2), N=(3,), p=(3,)):
            yield verify("eq8", "corrected", params, mode, "pass", "exact")
            yield verify("recursion", "corrected", params, mode, "pass", "exact")
        for params in ("m=1,h=1,k=4,p=3", "m=3,h=1,k=2,p=3"):
            yield verify("theorem1", "corrected", params, mode, "pass", "exact")


def rational_oracle_pool():
    for e in (3, 4, 5, 6):
        yield oracle(f"qpow:e={e}", 3, 4, 5, "rising", "rising")


# workload -> (core builder, [(pool builder, how many to draw)]); each pool
# holds checks of about the same cost, so the draw hardly moves a pass's time
WORKLOADS = {
    "sym_grid": (sym_grid_core, [(sym_grid_pool, 8)]),
    "sym_measure": (sym_measure_core, [(sym_measure_pool, 3)]),
    "padic": (padic_core, [(padic_pool, 6)]),
    "rational_cli": (rational_core, [(rational_pool, 24), (rational_oracle_pool, 1)]),
}


def build(workload: str, seed: int, expected: dict) -> list:
    """The checks of one workload at one seed, each with its expected verdict."""
    core, pools = WORKLOADS[workload]
    rng = random.Random(seed)
    checks = [
        Check(c.id, c.run, c.rule, expected.get(c.id, "missing from expected.json"), c.precision)
        for c in core()
    ]
    for pool, count in pools:
        checks.extend(rng.sample(list(pool()), count))
    return checks
