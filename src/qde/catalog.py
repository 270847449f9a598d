"""The identity catalog: every relation the checker knows, stated once.

An entry names an identity's parameter keys, default sweep, variants,
report labels and parameters, the symbolic scale a point needs, and a
function building both sides in any coefficient mode.  Its functions
take the point's keys as keyword arguments: sides(variant, mode,
**point), params(**point) and scale(**point).  check() compares the
sides and returns a report.

Checks return reports instead of asserting, so a variant that fails
(several printed forms do) is data, not an error.  A point outside an
identity's domain raises QdeError out of check(); every entry tests its
domain before it builds any value.

Where two variants exist, "printed" is the identity as displayed in its
source and "corrected" the derivation-consistent reading.  eq5/eq7 and
eq8/recursion share one alternating residue sum, qeuler.residue_split,
whose terms all have one denominator and are summed over it.  The
paper states these relations for scaled values [d]^n E_n(y/d; q^d),
which the kernels form with no product (qeuler.scaled_qeuler, whose
docstring gives the identity behind it, and a split at base q^d): only
the division uses 1 - q^alpha, and a pole or exhausted precision of
E_n(y/d; q^d) itself still raises.
"""

import time
from dataclasses import dataclass, field
from fractions import Fraction
from math import gcd
from typing import Callable

from .dedekind import DCParams, _check_m_n_alpha, bracket_weighted_sum, padic_dc_sum, q_dc_sum
from .errors import PreconditionError
from .exact import as_int, as_rational
from .padic import require_odd_prime
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
from .reports import IdentityReport

BOTH = ("printed", "corrected")

# theorem1's variants select the normalization of the interpolated term
THEOREM1_READINGS = {"printed": "interpolated_printed", "corrected": "interpolated"}


def _x_denominator(x=0, **_) -> int:
    return as_rational(x).denominator


@dataclass(frozen=True)
class Identity:
    """One catalogued relation.

    params maps a point's keys to its report parameters (the mode
    description is added by check()); the default reports the keys as
    they are.  labels renames a variant in reports.  scale gives the
    smallest symbolic substitution exponent the point's exponents need.
    """

    keys: tuple
    defaults: dict
    sides: Callable
    variants: tuple = BOTH
    params: Callable = dict
    labels: dict = field(default_factory=dict)
    scale: Callable = _x_denominator

    def label(self, variant: str) -> str:
        return self.labels.get(variant, variant)


def _eq4(variant, mode, n, alpha, x):
    # the command line reads x as a Fraction; the additive form wants ints
    x = as_int(x)
    return qeuler_poly(n, alpha, x, mode), qeuler_poly_additive(n, alpha, x, mode)


def _numbers(variant, mode, n, alpha):
    # the closed form at x = 0 against the fermionic recurrence's table
    return qeuler_poly(n, alpha, 0, mode), qeuler_numbers(n, alpha, mode)[n]


def _distribution(lift_printed: bool):
    """eq5/eq7: E_n(x) = [d]^n (1+q)/(1+q^d) sum_a (-1)^a w_a E_n((x+a)/d; inner).

    The corrected reading weights by q^a and evaluates at base q^d; the
    printed eq7 keeps base q^d without weights, printed eq5 drops both.
    At base q^d the split returns the sum with [d]^n in it (see
    residue_split); printed eq5 splits at base q and multiplies by [d]^n.
    """

    def sides(variant, mode, n, alpha, x, d):
        if d < 1 or d % 2 == 0:
            raise PreconditionError(f"modulus must be odd and positive, got {d}")
        x = as_rational(x)
        lhs = qeuler_poly(n, alpha, x, mode)
        corrected = variant == "corrected"
        base = d if corrected or lift_printed else 1
        xs = [Fraction(x.numerator + a * x.denominator, x.denominator * d) for a in range(d)]
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

    def sides(variant, mode, m, a, N, p, alpha):
        require_odd_prime(p)
        if reduce:
            if N % p != 0:
                raise PreconditionError(f"need p = {p} dividing N = {N}")
            if gcd(a, p) != 1:
                raise PreconditionError(f"a = {a} must be a unit mod p = {p}")
            _check_m_n_alpha(m, N, alpha)
            a %= N
        elif m < 0 or a < 1 or N < 1:
            raise PreconditionError(f"need m >= 0, a >= 1, N >= 1, got m={m} a={a} N={N}")
        xs = [Fraction(a + i * N, N * p) for i in range(p)]
        return scaled_qeuler(m, alpha, a, N, mode), residue_split(mode, N * p, m, alpha, xs, N, variant == "corrected")

    return sides


def _eq6(variant, mode, m, h, k, alpha, p):
    # [k]^(m+1) J(h,k; base k) against bracket-weighted naive values; exact
    # in every mode under p | k, every hM a unit mod p, p - 1 | m + 1
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


def _theorem1(variant, mode, m, h, k, alpha, p):
    """Interpolated sum against [k]^(m+1) J(h,k; base k) - [k]^m [kp] J(h',k; base pk).

    h' is the p-inverse of h mod k.  Exact in rational and symbolic
    modes with the corrected reading; the printed normalization drifts
    for m >= 2.
    """
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
        params=lambda n, alpha, x: {"n": n, "alpha": alpha, "x": as_int(x)},
    ),
    "eq5": Identity(
        keys=_SPLIT_KEYS,
        defaults=_SPLIT_DEFAULTS,
        sides=_distribution(lift_printed=False),
        params=lambda n, alpha, x, d: {"n": n, "alpha": alpha, "x": str(as_rational(x)), "d": d},
        # the printed inner values stay at base q, so the shifted
        # arguments (x+a)/d need a factor d on top of x's denominator
        scale=lambda x, d, **_: _x_denominator(x) * max(d, 1),
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
        params=lambda n, alpha, x, d: {"power": n, "modulus": d, "alpha": alpha, "x": str(as_rational(x))},
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
        params=lambda p, **pt: dict(pt, p=p, index_count=p),
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
    params = CATALOG[identity].params(**point)
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
    params = report_params(identity, point, mode)
    t0 = time.perf_counter()
    status = compare_values(mode, *entry.sides(variant, mode, **point))
    return IdentityReport(identity, entry.label(variant), params, status, int((time.perf_counter() - t0) * 1000))
