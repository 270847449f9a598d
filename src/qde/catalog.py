"""The identity catalog: every relation the checker knows, stated once.

An entry names an identity's parameter keys, default sweep, variants,
report labels and parameters, the symbolic scale a point needs, and a
sides(point, variant, mode) function building both sides in any
coefficient mode.  check() compares the sides and returns a report.

Checks return reports instead of asserting, so a variant that fails
(several printed forms do) is data, not an error.  A point outside an
identity's domain raises QdeError out of check().

Where two variants exist, "printed" is the identity as displayed in its
source and "corrected" the derivation-consistent reading.  eq5/eq7 and
eq8/recursion share one alternating residue sum, qeuler.residue_split,
whose terms all have one denominator and are summed over it.  The
paper states these relations for scaled values [d]^n E_n(y/d; q^d),
and since [d]^n / (1 - q^(alpha d))^n = 1 / (1 - q^alpha)^n the kernels
form them with no product (qeuler.scaled_qeuler, and a split at base
q^d): only the division uses 1 - q^alpha, and a pole or exhausted
precision of E_n(y/d; q^d) itself still raises.
"""

from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

from .dedekind import DCParams, bracket_weighted_sum, padic_dc_sum, q_dc_sum
from .errors import PreconditionError
from .padic import is_odd_prime
from .qeuler import (
    compare_values,
    q_int,
    qeuler_numbers,
    qeuler_poly,
    qeuler_poly_additive,
    residue_split,
    root_mode,
    scaled_qeuler,
)
from .reports import IdentityReport, timed_report

BOTH = ("printed", "corrected")

# theorem1's variants select the normalization of the interpolated term
THEOREM1_READINGS = {"printed": "interpolated_printed", "corrected": "interpolated"}


def _x_denominator(point: dict) -> int:
    return Fraction(point.get("x", 0)).denominator


@dataclass(frozen=True)
class Identity:
    """One catalogued relation.

    params maps a point to its report parameters (the mode description
    is added by check()); None reports the point's keys as they are.
    labels renames a variant in reports.  scale gives the smallest
    symbolic substitution exponent the point's exponents need.
    """

    keys: tuple
    defaults: dict
    sides: Callable
    variants: tuple = BOTH
    params: Callable = None
    labels: dict = field(default_factory=dict)
    scale: Callable = _x_denominator

    def label(self, variant: str) -> str:
        return self.labels.get(variant, variant)


def _integral(x):
    # the command line reads x as a Fraction; the additive form wants ints
    x = Fraction(x)
    return int(x) if x.denominator == 1 else x


def _eq4(pt, variant, mode):
    n, alpha, x = pt["n"], pt["alpha"], _integral(pt["x"])
    return qeuler_poly(n, alpha, x, mode), qeuler_poly_additive(n, alpha, x, mode)


def _numbers(pt, variant, mode):
    # the closed form at x = 0 against the fermionic recurrence's table
    n, alpha = pt["n"], pt["alpha"]
    return qeuler_poly(n, alpha, 0, mode), qeuler_numbers(n, alpha, mode)[n]


def _distribution(lift_printed: bool):
    """eq5/eq7: E_n(x) = [d]^n (1+q)/(1+q^d) sum_a (-1)^a w_a E_n((x+a)/d; inner).

    The corrected reading weights by q^a and evaluates at base q^d; the
    printed eq7 keeps base q^d without weights, printed eq5 drops both.
    At base q^d the split returns the sum with [d]^n in it (see
    residue_split); printed eq5 splits at base q and multiplies by [d]^n.
    """

    def sides(pt, variant, mode):
        n, alpha, x, d = pt["n"], pt["alpha"], Fraction(pt["x"]), pt["d"]
        lhs = qeuler_poly(n, alpha, x, mode)
        if d < 1 or d % 2 == 0:
            raise PreconditionError(f"modulus must be odd and positive, got {d}")
        corrected = variant == "corrected"
        base = d if corrected or lift_printed else 1
        xs = [(x + a) / d for a in range(d)]
        rhs = residue_split(mode, base, n, alpha, xs, 1, corrected)
        # the split has [base]^n in it; printed eq5 splits at base q, so [d]^n is a factor there
        return lhs, rhs if base == d else q_int(d, alpha, mode) ** n * rhs

    return sides


def _shifted(reduce: bool):
    """eq8/recursion: [N]^m E_m(a/N; q^N) split over a + iN, i < p, at base q^(Np).

    Both sides are scaled values: scaled_qeuler on the left, and a split
    whose terms are [Np]^m E_m(x_i; q^(Np)) on the right, each over (1 -
    q^alpha)^m with no q-integer power formed.

    recursion (reduce) first reduces a mod N, as interp_value does, so
    every shifted residue a + iN lies below Np, and needs p | N with a a
    unit mod p, so no shifted residue is divisible by p and all p terms
    stay.
    """

    def sides(pt, variant, mode):
        m, a, n, p, alpha = pt["m"], pt["a"], pt["N"], pt["p"], pt["alpha"]
        if not is_odd_prime(p):
            raise PreconditionError(f"p must be an odd prime, got {p}")
        if reduce:
            if n % p != 0:
                raise PreconditionError(f"need p = {p} dividing N = {n}")
            if gcd(a, p) != 1:
                raise PreconditionError(f"a = {a} must be a unit mod p = {p}")
            if m < 0 or n < 1 or alpha < 1:
                raise PreconditionError(f"need m >= 0, N >= 1, alpha >= 1, got m={m} N={n} alpha={alpha}")
            a %= n
        elif m < 0 or a < 1 or n < 1:
            raise PreconditionError(f"need m >= 0, a >= 1, N >= 1, got m={m} a={a} N={n}")
        xs = [Fraction(a + i * n, n * p) for i in range(p)]
        return scaled_qeuler(m, alpha, a, n, mode), residue_split(mode, n * p, m, alpha, xs, n, variant == "corrected")

    return sides


def _eq6(pt, variant, mode):
    # [k]^(m+1) J(h,k; base k) against bracket-weighted naive values; exact
    # in every mode under p | k, every hM a unit mod p, p - 1 | m + 1
    m, h, k, alpha, p = pt["m"], pt["h"], pt["k"], pt["alpha"], pt["p"]
    DCParams(h=h, k=k, m=m, alpha=alpha, l=k, p=p)
    if k % p != 0:
        raise PreconditionError(f"need p = {p} dividing k = {k}")
    if (m + 1) % (p - 1) != 0:
        raise PreconditionError(f"need m + 1 divisible by p - 1, got m={m} p={p}")
    # h is a unit mod p | k, so p | hM first at M = p
    if k > p:
        raise PreconditionError(f"p = {p} divides h*M at M = {p}")
    lhs = q_int(k, alpha, mode) ** (m + 1) * q_dc_sum(m, h, k, alpha, k, mode)
    return lhs, bracket_weighted_sum(m, h, k, alpha, "naive", mode)


def _theorem1(pt, variant, mode):
    """Interpolated sum against [k]^(m+1) J(h,k; base k) - [k]^m [kp] J(h',k; base pk).

    h' is the p-inverse of h mod k.  Exact in rational and symbolic
    modes with the corrected reading; the printed normalization drifts
    for m >= 2.
    """
    m, h, k, alpha, p = pt["m"], pt["h"], pt["k"], pt["alpha"], pt["p"]
    lhs = padic_dc_sum(m, h, k, alpha, p, mode, THEOREM1_READINGS[variant])
    if k == 1:
        return lhs, mode.from_rational(0)
    h_inv = (pow(p, -1, k) * h) % k
    bk = q_int(k, alpha, mode)
    j_one = q_dc_sum(m, h, k, alpha, k, mode)
    j_two = q_dc_sum(m, h_inv, k, alpha, p * k, mode)
    bk_m = bk**m
    return lhs, bk_m * bk * j_one - bk_m * q_int(k * p, alpha, mode) * j_two


_SPLIT_KEYS = ("n", "alpha", "d", "x")
_SPLIT_DEFAULTS = {"n": list(range(4)), "alpha": [1, 2], "d": [1, 3, 5], "x": [Fraction(0)]}
_SHIFT_KEYS = ("m", "a", "N", "p", "alpha")

CATALOG = {
    "eq4": Identity(
        keys=("n", "alpha", "x"),
        defaults={"n": list(range(7)), "alpha": [1, 2, 3], "x": [0, 1, 2, 3]},
        sides=_eq4,
        variants=("printed",),
        params=lambda pt: {"n": pt["n"], "alpha": pt["alpha"], "x": _integral(pt["x"])},
    ),
    "eq5": Identity(
        keys=_SPLIT_KEYS,
        defaults=_SPLIT_DEFAULTS,
        sides=_distribution(lift_printed=False),
        params=lambda pt: {"n": pt["n"], "alpha": pt["alpha"], "x": Fraction(pt["x"]), "d": pt["d"]},
        # the printed inner values stay at base q, so the shifted
        # arguments (x+a)/d need a factor d on top of x's denominator
        scale=lambda pt: _x_denominator(pt) * max(pt["d"], 1),
    ),
    "eq6": Identity(
        keys=("m", "h", "k", "alpha", "p"),
        defaults={"m": [1], "h": [1, 2], "k": [3], "alpha": [1], "p": [3]},
        sides=_eq6,
        variants=("printed",),
    ),
    "eq7": Identity(
        keys=_SPLIT_KEYS,
        defaults=_SPLIT_DEFAULTS,
        sides=_distribution(lift_printed=True),
        params=lambda pt: {
            "power": pt["n"], "modulus": pt["d"], "alpha": pt["alpha"], "x": Fraction(pt["x"]),
        },
    ),
    "eq8": Identity(
        keys=_SHIFT_KEYS,
        defaults={"m": [0, 1, 2], "a": [1, 2], "N": [2, 3], "p": [3], "alpha": [1]},
        sides=_shifted(reduce=False),
    ),
    "numbers": Identity(
        keys=("n", "alpha"),
        defaults={"n": list(range(7)), "alpha": [1, 2, 3]},
        sides=_numbers,
        variants=("printed",),
    ),
    "recursion": Identity(
        keys=_SHIFT_KEYS,
        defaults={"m": [0, 1, 2], "a": [1, 2], "N": [3], "p": [3], "alpha": [1]},
        sides=_shifted(reduce=True),
        params=lambda pt: dict({k: pt[k] for k in _SHIFT_KEYS}, index_count=pt["p"]),
    ),
    "theorem1": Identity(
        keys=("m", "h", "k", "alpha", "p"),
        defaults={"m": [1], "h": [1], "k": [2], "alpha": [1], "p": [3]},
        sides=_theorem1,
        labels=THEOREM1_READINGS,
    ),
}


def report_params(identity: str, point: dict, mode) -> dict:
    """A point's report parameters (Fractions as strings) and mode, alike for a result and an error."""
    entry = CATALOG[identity]
    params = entry.params(point) if entry.params else {k: point[k] for k in entry.keys}
    params = {k: (str(v) if isinstance(v, Fraction) else v) for k, v in params.items()}
    params["mode"] = root_mode(mode).describe()
    return params


def check(identity: str, variant: str, point: dict, mode) -> IdentityReport:
    """Compare both sides of a catalogued identity at one point.

    point maps each of the identity's keys to a value.  The report
    carries the identity id, the variant as labelled in reports, the
    point's parameters with the mode description, and the status from
    compare_values.
    """
    entry = CATALOG[identity]
    if variant not in entry.variants:
        raise PreconditionError(f"identity {identity} has no {variant!r} form")
    return timed_report(
        identity, entry.label(variant), report_params(identity, point, mode),
        lambda: compare_values(mode, *entry.sides(point, variant, mode)),
    )
