"""Univariate polynomials and rational functions with exact rational
coefficients.

A polynomial is a tuple of integer numerators, degree-ascending with
trailing zeros stripped, over one positive common denominator (the zero
polynomial is the empty tuple over 1).  The pair is kept in lowest
terms: no prime divides the denominator and every numerator.  That
form is canonical, so ``==`` and ``hash`` compare it structurally, and
``Poly.coeffs`` rebuilds the coefficients as Fractions.  A rational
function keeps a numerator and a monic denominator that may share a
factor, and is brought to lowest terms only when its ``num`` or ``den``
is read: by hashing, evaluation, rendering and serialization.  A
kernel's or the symbolic measure's parts stay packed ints (_Packed),
each with a bound h on its digits, until arithmetic other than negation
and a sum over the same denominator, or reduction.

All arithmetic runs on the integer numerators.  Multiplication and
division switch on operand length alone:

- A product whose shorter operand has at least ``KRONECKER_MIN_LEN``
  terms uses Kronecker substitution (D. Harvey, "Faster polynomial
  multiplication via multipoint Kronecker substitution", J. Symb.
  Comput. 44, 2009).  Each operand is evaluated at xi = 2^(8w), with w
  bytes per coefficient, enough for every coefficient of the product.
  The two integers are multiplied once, and the product's coefficients
  are read back as balanced base-xi digits.  Shorter products use the
  schoolbook double loop, which is faster there.
- The only division is an exact quotient.  It first tries the same
  substitution when the quotient and the divisor both reach that
  length: one integer division of the packed values, with the quotient
  accepted only if the division is exact and coefficient bounds prove
  that it lifts back to the polynomials.  Otherwise it runs integer long
  division and gives up at the first step whose leading coefficient is
  not a multiple of the divisor's, or at a nonzero remainder.  For a
  primitive divisor that proves it does not divide: by Gauss's lemma,
  its quotient of an integer polynomial has integer coefficients.
- The gcd is GCDHEU (B. Char, K. Geddes, G. Gonnet, "GCDHEU: heuristic
  polynomial GCD algorithm based on integer GCD computation", J. Symb.
  Comput. 7, 1989).  Both primitive inputs are packed by the same
  evaluator as products, at xi = 2^(8w) with w the byte width of the
  wider input's coefficients, so xi >= 2 max(|a|, |b|) + 2.  The integer
  gcd of the two values is read back as balanced base-xi digits, and the
  primitive part of that polynomial is accepted only when exact division
  proves that it divides both inputs, which makes it the gcd.  A
  rejected candidate is retried at xi squared until one is accepted,
  which always happens once xi exceeds twice the gcd's coefficients
  times the resultant of the cofactors (the proof is at ``_heu_gcd``).
  The quotients of the proving divisions are the cofactors, so reducing
  a rational function takes no further division.  When both inputs are
  polynomials in q^s, the gcd is taken on the lists in q^s.

Arithmetic and the constructor cancel only the common factors that
need no GCDHEU (P. Henrici, J. ACM 3, 1956; D. Knuth, TAOCP vol. 2,
section 4.5.1).  A gcd with a constant or a monomial c q^k is the power
of q both sides share, read off by index, and equal sides are their own
gcd.  Other gcds are taken as 1 and the result is marked unreduced.

- a/b * c/d cancels gcd(a, d) and gcd(c, b).  A quotient multiplies by
  the inverse, which needs no gcd.
- a/b + c/d with b and d known equal at no cost (one object, equal
  lists, or one int packed at one stride and width) is (a + c)/b: b is
  kept, no gcd is looked for, and the sum is marked unreduced.  Two
  numerators packed at one stride and width add as one int while
  h_a + h_c < 2^(bits-1), and are moved wider past that.
- Any other a/b + c/d takes g = gcd(b, d) and writes b = g b1,
  d = g d1.  The sum is (a d1 + c b1) / (g b1 d1), and only
  gcd(a d1 + c b1, g) is left to cancel: for reduced operands
  gcd(a d1 + c b1, b1 d1) = 1, since an irreducible factor of b1
  divides neither a (a/b is reduced) nor d1 (b1 and d1 are coprime),
  and likewise for d1.

A result is marked reduced when its operands were and every gcd it
needed came from the rules above.  Two reduced values are equal when
their parts are; otherwise a/b == c/d is decided as a d == c b, which is
exact since b and d are nonzero, on the two products packed at one
xi = 2^(8w) wide enough for both (_same_products).  A coefficient of x y
is at most max|x| times the L1 norm of y and the other way round, a
list giving its own maximum and norm, a packed part its digit bound h
(h < 2^(bits-1)) and h times its length: a kernel sets h to the L1
bound its width comes from, so the width follows the formula's bounds
and not 2^(bits-1).

A degree guardrail rejects intermediates above ``MAX_DEGREE``: large
enough for every check shipped here, small enough to fail fast on a
runaway exponent.  An unreduced sum, product, power or cross-product
that would pass it is redone on operands in lowest terms with every gcd
taken, and raises only if that passes it too.
"""

import sys
from array import array
from fractions import Fraction
from math import gcd, lcm

from .errors import PoleError, ResourceLimitError
from .exact import Frozen, format_rational

MAX_DEGREE = 100_000
# shortest operand length at which Kronecker substitution takes over from the
# double loop (and from long division); the two cross at about 4 to 16 terms
KRONECKER_MIN_LEN = 8

# array type codes of the signed machine integers, by size in bytes
_SIGNED = {array(code).itemsize: code for code in "bhilq"}
_TOP_BIT = bytes(b >> 7 for b in range(256))
_FLIP_TOP_BIT = bytes(b ^ 0x80 for b in range(256))


def _guard_degree(d: int) -> None:
    if d > MAX_DEGREE:
        raise ResourceLimitError(f"polynomial degree {d} exceeds limit {MAX_DEGREE}")


class Poly(Frozen):
    """Dense univariate polynomial over the rationals, coefficients ascending.

    Stored as integer numerators over one positive common denominator
    in lowest terms; ``coeffs`` gives the Fraction coefficients.
    """

    __slots__ = ("_num", "_den")

    def __init__(self, coeffs=()):
        cs = [c if isinstance(c, int) else Fraction(c) for c in coeffs]
        den = lcm(*(c.denominator for c in cs))
        _init(self, [c.numerator * (den // c.denominator) for c in cs], den)

    @classmethod
    def zero(cls) -> "Poly":
        return cls(())

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def const(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        if k < 0:
            raise ValueError("monomial exponent must be nonnegative")
        _guard_degree(k)
        if type(c) is int:
            return _poly([0] * k + [c], 1)
        c = Fraction(c)
        return _poly([0] * k + [c.numerator], c.denominator)

    @property
    def coeffs(self) -> tuple:
        den = self._den
        return tuple(Fraction(c, den) for c in self._num)

    @property
    def degree(self) -> int:
        return len(self._num) - 1

    @property
    def is_zero(self) -> bool:
        return not self._num

    def __eq__(self, other):
        return isinstance(other, Poly) and self._den == other._den and self._num == other._num

    def __hash__(self):
        return hash((self._num, self._den))

    def __add__(self, other):
        a, da = self._num, self._den
        b, db = other._num, other._den
        if da != db:
            den = lcm(da, db)
            fa, fb = den // da, den // db
            a = [c * fa for c in a]
            b = [c * fb for c in b]
        else:
            den = da
        if len(a) < len(b):
            a, b = b, a
        out = [x + y for x, y in zip(a, b)]
        out += a[len(b):]
        return _poly(out, den)

    def __neg__(self):
        return _raw(tuple(-c for c in self._num), self._den)

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if self.is_zero or other.is_zero:
            return Poly()
        if other._num == (1,) and other._den == 1:
            return self
        if self._num == (1,) and self._den == 1:
            return other
        _guard_degree(self.degree + other.degree)
        return _poly(_mul_ints(self._num, other._num), self._den * other._den)

    def scale(self, c) -> "Poly":
        c = Fraction(c)
        if c == 0:
            return Poly()
        n = c.numerator
        return _poly([x * n for x in self._num], self._den * c.denominator)

    def __pow__(self, e: int):
        if e < 0:
            raise ValueError("negative power of a polynomial")
        result = Poly.one()
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x0):
        """Horner evaluation at an exact rational point."""
        if self.is_zero:
            return Fraction(0)
        x0 = Fraction(x0)
        a, b = x0.numerator, x0.denominator
        # homogeneous Horner: acc ends as the value times b^degree = bp
        acc, bp = self._num[-1], 1
        for c in self._num[-2::-1]:
            bp *= b
            acc = acc * a + c * bp
        return Fraction(acc, bp * self._den)

    def to_strings(self) -> list[str]:
        den = self._den
        if den == 1:
            return [str(c) for c in self._num]
        return [str(c // g) if (g := gcd(c, den)) == den else f"{c // g}/{den // g}" for c in self._num]

    def render(self, var: str = "q") -> str:
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                term = format_rational(c)
            else:
                mag = format_rational(abs(c))
                head = "" if mag == "1" else f"{mag}*"
                term = f"{head}{var}" + (f"^{i}" if i > 1 else "")
                if c < 0:
                    term = "-" + term
            if parts and not term.startswith("-"):
                parts.append("+" + term)
            else:
                parts.append(term)
        return "".join(parts)

    def __repr__(self):
        return f"Poly({self.render()})"


def _init(p: Poly, num: list[int], den: int) -> None:
    """Store num/den in p in lowest terms with den > 0 (num is consumed)."""
    while num and not num[-1]:
        num.pop()
    if not num:
        den = 1
    elif den != 1:
        if den < 0:
            num = [-c for c in num]
            den = -den
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    object.__setattr__(p, "_num", tuple(num))
    object.__setattr__(p, "_den", den)


def _poly(num: list[int], den: int) -> Poly:
    """The polynomial num/den, brought to lowest terms (num is consumed)."""
    p = object.__new__(Poly)
    _init(p, num, den)
    return p


def _raw(num: tuple, den: int) -> Poly:
    """A Poly from a pair already in lowest terms."""
    p = object.__new__(Poly)
    object.__setattr__(p, "_num", num)
    object.__setattr__(p, "_den", den)
    return p


# integer polynomial kernels: int sequences, degree-ascending, with a
# nonzero leading coefficient


def _primitive(a: list[int]) -> list[int]:
    """a divided by its content, with a positive leading coefficient."""
    g = gcd(*a)
    if a[-1] < 0:
        g = -g
    elif g == 1:
        return a
    return [c // g for c in a]


def _width(bound: int) -> int:
    """Bytes per digit so that balanced digits of magnitude <= bound fit.

    Up to 8 bytes the width is rounded up to a machine integer size, so
    that packing runs through ``array``.
    """
    w = bound.bit_length() // 8 + 1
    for size in (1, 2, 4, 8):
        if w <= size:
            return size
    return w


def _to_bytes(a, w: int) -> bytes:
    """Little-endian two's complement of each digit, w bytes apiece."""
    code = _SIGNED.get(w)
    if code is None:
        return b"".join(c.to_bytes(w, "little", signed=True) for c in a)
    arr = array(code, a)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tobytes()


def _from_bytes(raw, w: int) -> list[int]:
    """Inverse of _to_bytes."""
    code = _SIGNED.get(w)
    if code is None:
        return [int.from_bytes(raw[i:i + w], "little", signed=True) for i in range(0, len(raw), w)]
    arr = array(code)
    arr.frombytes(raw)
    if sys.byteorder == "big":
        arr.byteswap()
    return arr.tolist()


def _pack(a, w: int) -> int:
    """a evaluated at 2^(8w); every |a_i| must be below 2^(8w-1)."""
    raw = _to_bytes(a, w)
    # a negative digit's two's complement reads 2^(8w) too high, which is
    # one unit too many in the next digit up
    carry = bytearray(len(raw) + w)
    carry[w::w] = raw[w - 1::w].translate(_TOP_BIT)
    return int.from_bytes(raw, "little") - int.from_bytes(carry, "little")


def _unpack(v: int, n: int, w: int) -> list[int]:
    """The n balanced base-2^(8w) digits of v, lowest first.

    Raises OverflowError when v needs more than n digits.
    """
    # adding 2^(8w-1) to every digit makes them all nonnegative; flipping
    # the top bit of each then gives the digit in two's complement
    raw = bytearray((v + _offset(n, w)).to_bytes(n * w, "little"))
    raw[w - 1::w] = raw[w - 1::w].translate(_FLIP_TOP_BIT)
    return _from_bytes(raw, w)


def _offset(n: int, w: int, m: int = 0) -> int:
    """Sum of 2^(8m-1) * 2^(8w*j) for j < n, m = w by default."""
    m = m or w
    return int.from_bytes((bytes(m - 1) + b"\x80" + bytes(w - m)) * n, "little")


def _mul_schoolbook(a, b) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    n = len(a)
    out = [0] * (n + len(b) - 1)
    for j, y in enumerate(b):
        if y:
            out[j:j + n] = [o + x * y for o, x in zip(out[j:j + n], a)]
    return out


def _mul_kronecker(a, b) -> list[int]:
    w = _width(_bound(a, b))
    pa = _pack(a, w)
    pb = pa if b is a else _pack(b, w)
    return _unpack(pa * pb, len(a) + len(b) - 1, w)


def _same_products(a: Poly, b: Poly, c: Poly, d: Poly) -> bool:
    """a b == c d, decided on two packed products, with no product unpacked, no list read back and no Poly built.

    With a = A / s_a and so on, that is A B s_c s_d = C D s_a s_b on
    integer polynomials.  Each operand is taken in Q^s, s the gcd of the
    strides, at 2^(8w), w wide enough for every coefficient of both
    products, so the integers are equal exactly when the polynomials are.
    """
    left, right = c._den * d._den, a._den * b._den
    if type(a) is type(b) is type(c) is type(d) is Poly:  # lists alone pack fastest at a machine width
        x, y, u, v = a._num, b._num, c._num, d._num
        # a product is zero where a factor is, and its degree is the sum of theirs
        if not (x and y and u and v) or len(x) + len(y) != len(u) + len(v):
            return not (x and y or u and v)
        _guard_degree(len(x) + len(y) - 2)
        w = _width(max(_bound(x, y) * left, _bound(u, v) * right))
        return _pack(x, w) * _pack(y, w) * left == _pack(u, w) * _pack(v, w) * right
    shapes = [_shape(p) for p in (a, b, c, d)]
    (ka, sa, na, ma, la), (kb, sb, nb, mb, lb), (kc, sc, nc, mc, lc), (kd, sd, nd, md, ld) = shapes
    if min(ka, kb, kc, kd) < 0 or ka + kb != kc + kd:
        return (ka < 0 or kb < 0) and (kc < 0 or kd < 0)
    _guard_degree(ka + kb)
    # a coefficient of x y is at most max|x_i| times the L1 norm of y, and the other way round
    bound = max(min(ma * lb, la * mb) * left, min(mc * ld, lc * md) * right)
    # packed operands alone are moved to any width, and the products cost its square
    w = bound.bit_length() // 8 + 1 if type(a) is type(b) is type(c) is type(d) is _Packed else _width(bound)
    x, y, u, v = (_restrided(p._packed, n, gcd(sa, sb, sc, sd) or 1, w) if type(p) is _Packed else _pack(p._num, w)
                  for p, (_, _, n, _, _) in zip((a, b, c, d), shapes))
    return x * y * left == u * v * right


def _bound(a, b) -> int:
    """A bound on the coefficients of a b: each is a sum of at most min(len) products."""
    return max(map(abs, a)) * max(map(abs, b)) * min(len(a), len(b))


def _shape(p: Poly) -> tuple:
    """(degree, stride, digits, bound on |digit|, bound on the L1 norm) of p's numerator.

    Zero has degree -1, a constant list stride 0.  A list's bounds are its
    own maximum and L1 norm, a packed part's its digit bound h and h times
    its digits.
    """
    if type(p) is not _Packed:
        x = p._num
        return len(x) - 1, 1 if len(x) > 1 else 0, len(x), max(map(abs, x), default=0), sum(map(abs, x))
    v, _, g, bits = p._packed
    # every |digit| is below 2^(bits-1), so 2^(bits k - 1) <= |v| < 2^(bits (k+1) - 1) at degree k
    k = abs(v).bit_length() // bits if v else -1
    return g * k, g, k + 1, p._h, (k + 1) * p._h


def _restrided(packed: tuple, n: int, s: int, w: int) -> int:
    """n digits packed in Q^g, moved to Q^s at 2^(8w): offset to nonnegative bytes, sliced, offset back.

    Each digit is offset by 2^(8m-1), m the narrower width, so its low m bytes hold it; where w is the
    narrower, the caller's bound keeps every digit below 2^(8w-1).
    """
    v, _, g, bits = packed
    u, step = bits // 8, g // s * w
    if step == u:
        return v
    m = min(u, w)
    raw, out = (v + _offset(n, u, m)).to_bytes(n * u, "little"), bytearray(n * step)
    for k in range(m):
        out[k::step] = raw[k::u]
    return int.from_bytes(out, "little") - _offset(n, step, m)


def _mul_ints(a, b) -> list[int]:
    if min(len(a), len(b)) < KRONECKER_MIN_LEN:
        return _mul_schoolbook(a, b)
    return _mul_kronecker(a, b)


def _quo_kronecker(a, b):
    """a / b from one integer division at xi = 2^(8w), or None.

    A quotient q is returned only when it is proven: b(xi) q(xi) = a(xi),
    and every coefficient of b*q and of a is below xi/2 in magnitude, so
    the two polynomials have the same balanced base-xi digits.  None
    means b does not divide a, or the quotient is too wide to prove.
    """
    nb = max(map(abs, b))
    w = _width(max(map(abs, a)) * nb * len(b))
    qv, rv = divmod(_pack(a, w), _pack(b, w))
    if rv:
        return None
    n = len(a) - len(b) + 1
    try:
        q = _unpack(qv, n, w)
    except OverflowError:
        return None
    if max(map(abs, q)) * nb * min(n, len(b)) >> (8 * w - 1):
        return None
    return q


def _exact_quo(a, b):
    """a / b when b divides a over the integers, else None.

    A quotient proven by _quo_kronecker is taken as it is; otherwise
    integer long division, which gives up at the first leading term that
    is not a multiple of b's leading coefficient.  For primitive b that
    proves b does not divide a at all: by Gauss's lemma the quotient of
    an integer polynomial by a primitive one has integer coefficients.
    """
    db = len(b) - 1
    nq = len(a) - db
    if min(nq, len(b)) >= KRONECKER_MIN_LEN:
        q = _quo_kronecker(a, b)
        if q is not None:
            return q
    r = list(a)
    lb = b[-1]
    q = [0] * nq
    for pos in range(nq - 1, -1, -1):
        c = r[pos + db]
        if not c:
            continue
        t, m = divmod(c, lb)
        if m:
            return None
        q[pos] = t
        r[pos:pos + db + 1] = [x - t * y for x, y in zip(r[pos:pos + db + 1], b)]
    return None if any(r[:db]) else q


def _heu_gcd(a, b):
    """(g, a/g, b/g) with g the primitive gcd of primitive a and b.

    A candidate is proven: it divides both inputs, and with
    xi >= 2 min(|a|, |b|) + 2 such a candidate is the gcd; xi starts at
    the wider input's width, so that _pack can evaluate both.  The loop
    ends: write a = gA and b = gB with A, B coprime and R = Res(A, B),
    a nonzero integer combination UA + VB of A and B.  Then
    gcd(a(xi), b(xi)) = h |g(xi)| with h = gcd(A(xi), B(xi)) dividing R,
    so every xi > 2 |R| |g| (|g| the largest coefficient magnitude) reads
    back h g, whose primitive part is g.  Each rejection squares xi.
    """
    w = _width(max(max(map(abs, a)), max(map(abs, b))))
    while True:
        gamma = gcd(_pack(a, w), _pack(b, w))
        g = _unpack(gamma, gamma.bit_length() // (8 * w) + 2, w)
        while not g[-1]:
            g.pop()
        g = _primitive(g)
        if len(g) == 1:
            return g, a, b
        qa = _exact_quo(a, g)
        if qa is not None:
            qb = _exact_quo(b, g)
            if qb is not None:
                return g, qa, qb
        w *= 2


def _low(a) -> int:
    """Index of the lowest nonzero coefficient: the power of q dividing a."""
    return next(i for i, c in enumerate(a) if c)


def _scaled(a, k: int):
    return a if k == 1 else [c * k for c in a]


def _prod(a, b):
    """a * b for integer polynomials, under the degree guard."""
    if len(b) == 1 and b[0] == 1:
        return a
    if len(a) == 1 and a[0] == 1:
        return b
    _guard_degree(len(a) + len(b) - 2)
    return _mul_ints(a, b)


def _cancel(x, y, full: bool):
    """(g, x/g, y/g, done) with g a common factor of nonzero x and y, primitive with g[-1] > 0.

    The cofactors are exact over the integers and keep the contents of
    x and y.  When either side is a constant or a monomial c q^k, g is
    the power of q both share, read off by index, and equal sides are
    their own gcd.  Otherwise g and the cofactors come from GCDHEU and
    its proving divisions if full, and g is 1 if not; done says g is the gcd.
    """
    if len(x) == 1 or len(y) == 1:
        return [1], x, y, True
    if x.count(0) == len(x) - 1 or y.count(0) == len(y) - 1:
        j = min(_low(x), _low(y))
        return [0] * j + [1], x[j:], y[j:], True
    px, py = _primitive(x), _primitive(y)
    if tuple(px) == tuple(py):
        return px, [x[-1] // px[-1]], [y[-1] // py[-1]], True
    if not full:
        return [1], x, y, False
    # polynomials in q^s have their gcd in q^s, so it is taken on the shorter lists
    s = gcd(*(i for a in (px, py) for i in range(1, len(a)) if a[i]))
    g, xg, yg = (_stretch(v, s) for v in _heu_gcd(px[::s], py[::s]))
    return g, _scaled(xg, x[-1] // px[-1]), _scaled(yg, y[-1] // py[-1]), True


def _stretch(a, s: int) -> list:
    """a(q^s)."""
    c = [0] * (s * len(a) - s + 1)
    c[::s] = a
    return c


def _times(p: Poly, d) -> Poly:
    """p times the primitive integer polynomial d over d's leading coefficient."""
    if len(d) == 1:
        return p
    return _poly(_prod(p._num, d), p._den * d[-1])


def _monic(d) -> Poly:
    """d over its leading coefficient, for primitive d with d[-1] > 0."""
    return _raw(tuple(d), d[-1])


class _Packed(Poly):
    """An integer polynomial over 1, v at Q^g = 2^bits, n terms, each of magnitude at most h < 2^(bits-1).

    Its list is read back lazily, on the first use of ``_num``; ``is_zero``,
    negation, a sum with a part at its stride and width, and ``==`` do not
    read it.  h defaults to the largest digit the width holds.
    """

    __slots__ = ("_packed", "_h")
    __hash__ = Poly.__hash__  # which defining __eq__ would clear

    def __init__(self, v: int, n: int, g: int, bits: int, h: int = None):
        object.__setattr__(self, "_packed", (v, n, g, bits))
        object.__setattr__(self, "_h", (1 << bits - 1) - 1 if h is None else h)
        object.__setattr__(self, "_den", 1)

    def __getattr__(self, name):
        if name != "_num":
            raise AttributeError(name)
        v, n, g, bits = self._packed
        _init(self, _stretch(_unpack(v, n, bits // 8), g), 1)
        return self._num

    @property
    def is_zero(self) -> bool:
        return not self._packed[0]

    def __neg__(self):
        v, n, g, bits = self._packed
        return _Packed(-v, n, g, bits, self._h)

    def __eq__(self, other):
        if type(other) is _Packed and self._packed[2:] == other._packed[2:]:
            # balanced digits below 2^(bits-1) are unique: equal ints are equal polynomials
            return self._packed[0] == other._packed[0]
        return isinstance(other, Poly) and _same_products(self, _POLY_ONE, other, _POLY_ONE)


def _known_equal(b: Poly, d: Poly) -> bool:
    """b == d where no list is read back: one object, equal lists, or one int at one stride and width."""
    if b is d:
        return True
    if type(b) is _Packed or type(d) is _Packed:
        return type(b) is type(d) and b._packed[2:] == d._packed[2:] and b._packed[0] == d._packed[0]
    return b == d


def _plus(a: Poly, c: Poly) -> Poly:
    """a + c: one int sum for parts packed at one stride and width, moved wider where the digits need it."""
    if type(a) is not _Packed or type(c) is not _Packed or a._packed[2:] != c._packed[2:]:
        return a + c
    (v, n, g, bits), (u, m, _, _) = a._packed, c._packed
    h = a._h + c._h
    if h >> bits - 1:
        w = h.bit_length() // 8 + 1
        v, u, bits = _restrided(a._packed, n, g, w), _restrided(c._packed, m, g, w), 8 * w
    return _Packed(v + u, max(n, m), g, bits, h)


_POLY_ONE = Poly.one()
_POLY_ZERO = Poly.zero()


class RatFunc(Frozen):
    """Fraction of two Poly values with a monic denominator, reduced on demand.

    Arithmetic cancels only the common factors that need no GCDHEU (see
    the module docstring), so the stored parts may share a factor;
    ``_red`` says they are known not to.  ``num`` and ``den`` bring the
    value to lowest terms on first access and keep it, so hashing,
    evaluation, rendering and serialization see the canonical form,
    while ``==`` decides by cross-multiplication.
    """

    __slots__ = ("_n", "_d", "_red")

    def __init__(self, num: Poly, den: Poly = _POLY_ONE):
        if den.is_zero:
            raise ZeroDivisionError("zero denominator in rational function")
        self._put(num, den, False)._settle(False)

    def _put(self, num: Poly, den: Poly, red: bool) -> "RatFunc":
        object.__setattr__(self, "_n", num)
        object.__setattr__(self, "_d", den)
        object.__setattr__(self, "_red", red)
        return self

    def _settle(self, full: bool) -> "RatFunc":
        """self over a monic denominator, with what _cancel finds cancelled in place."""
        num, den = self._n, self._d
        if num.is_zero:
            return self._put(_POLY_ZERO, _POLY_ONE, True)
        # num/den = (x/num._den) / (y/den._den), x and y coprime when red
        _, x, y, red = _cancel(num._num, den._num, full)
        return self._put(_poly(_scaled(x, den._den), num._den * y[-1]), _poly(list(y), y[-1]), red)

    def _lowest(self) -> "RatFunc":
        """self, brought to lowest terms in place."""
        return self if self._red else self._settle(True)

    num = property(lambda self: self._lowest()._n, doc="numerator in lowest terms")
    den = property(lambda self: self._lowest()._d, doc="monic denominator in lowest terms")

    @classmethod
    def _reduced(cls, num: Poly, den: Poly, red: bool = True) -> "RatFunc":
        # private fast path for a monic den; red says num/den is in lowest terms
        return object.__new__(cls)._put(num, den, red)

    @classmethod
    def _from_packed(cls, num: tuple, den: tuple, g: int, bits: int, h: tuple = (None, None)) -> "RatFunc":
        """num / den packed as (value at Q^g = 2^bits, length), each coefficient below 2^(bits-1); not reduced.

        h bounds the magnitudes of num's and den's coefficients, by default
        the largest the width holds.  den must lead with +-1, as a kernel's,
        of powers of Q and binomials 1 +- Q^k, does: a packed value has its
        leading coefficient's sign, which alone makes den monic.
        """
        sign = -1 if den[0] < 0 else 1
        return cls._reduced(*(_Packed(sign * v, n, g, bits, b) for (v, n), b in zip((num, den), h)), False)

    @classmethod
    def const(cls, c) -> "RatFunc":
        return cls._reduced(Poly.const(c), _POLY_ONE)

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls._reduced(_POLY_ZERO, _POLY_ONE)

    @classmethod
    def one(cls) -> "RatFunc":
        return cls._reduced(_POLY_ONE, _POLY_ONE)

    @classmethod
    def from_poly(cls, p: Poly) -> "RatFunc":
        return cls._reduced(p, _POLY_ONE)

    @classmethod
    def monomial(cls, n: int) -> "RatFunc":
        """q^n for any integer n."""
        if n >= 0:
            return cls._reduced(Poly.monomial(n), _POLY_ONE)
        return cls._reduced(_POLY_ONE, Poly.monomial(-n))

    @property
    def is_zero(self) -> bool:
        return self._n.is_zero

    def __eq__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return False
        if self._red and other._red or self._d == other._d:
            return self._n == other._n and self._d == other._d
        try:
            # both denominators are nonzero, so a/b = c/d exactly when a d = c b
            return _same_products(self._n, other._d, other._n, self._d)
        except ResourceLimitError:
            return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a constant equals its Fraction value, so it hashes like it
        if self.den.degree == 0 and self.num.degree <= 0:
            return hash(self.num(0))
        return hash((self.num, self.den))

    def _coerce(self, other) -> "RatFunc":
        if isinstance(other, RatFunc):
            return other
        if isinstance(other, (int, Fraction)):
            return RatFunc.const(other)
        return NotImplemented

    def _guarded(self, op, other):
        """op(self, other, False), or past MAX_DEGREE op(self, other, True) in lowest terms."""
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        try:
            return op(self, other, False)
        except ResourceLimitError:
            self._lowest(), other._lowest()
            return op(self, other, True)

    def __add__(self, other):
        return self._guarded(RatFunc._add, other)

    __radd__ = __add__

    def _add(self, other, full: bool) -> "RatFunc":
        if other.is_zero:
            return self
        if self.is_zero:
            return other
        if _known_equal(self._d, other._d):
            # a/b + c/b = (a + c)/b, which may share a factor with b
            t = _plus(self._n, other._n)
            return RatFunc.zero() if t.is_zero else RatFunc._reduced(t, self._d, False)
        # a/b + c/d with b = g b1, d = g d1: the sum is t/(g b1 d1) with
        # t = a d1 + c b1, and only g can share a factor with t
        g, b1, d1, red = _cancel(self._d._num, other._d._num, full)
        t = _times(self._n, d1) + _times(other._n, b1)
        if t.is_zero:
            return RatFunc.zero()
        if len(g) > 1:
            # t is over the monic g b1 d1, so h's leading coefficient stays in t
            h, t1, g, done = _cancel(t._num, g, full)
            t = _poly(_scaled(t1, h[-1]), t._den)
            red = red and done
        return RatFunc._reduced(t, _monic(_prod(g, _prod(b1, d1))), red and self._red and other._red)

    def __neg__(self):
        return RatFunc._reduced(-self._n, self._d, self._red)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        return self._guarded(RatFunc._mul, other)

    __rmul__ = __mul__

    def _mul(self, other, full: bool) -> "RatFunc":
        if self.is_zero or other.is_zero:
            return RatFunc.zero()
        # a/b * c/d: cancel gcd(a, d) and gcd(c, b); what is left is coprime.
        # b and d are primitive parts over their leading coefficients, so
        # over the monic b1 d1 the gcds' leading coefficients stay on top
        a, b, c, d = self._n, self._d, other._n, other._d
        g1, a1, d1, red1 = _cancel(a._num, d._num, full)
        g2, c1, b1, red2 = _cancel(c._num, b._num, full)
        num = _poly(_scaled(_prod(a1, c1), g1[-1] * g2[-1]), a._den * c._den)
        return RatFunc._reduced(num, _monic(_prod(b1, d1)), red1 and red2 and self._red and other._red)

    def _inv(self) -> "RatFunc":
        """1/self for nonzero self."""
        n, d = self._n, self._d
        c = n._num
        return RatFunc._reduced(_poly(_scaled(d._num, n._den), d._den * c[-1]), _poly(list(c), c[-1]), self._red)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        if other.is_zero:
            raise ZeroDivisionError("division by the zero rational function")
        return self * other._inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return other
        return other / self

    def __pow__(self, e: int):
        if e == 0:
            return RatFunc.one()
        if e < 0:
            if self.is_zero:
                raise ZeroDivisionError("negative power of zero")
            return self._inv() ** -e
        try:
            return RatFunc._reduced(self._n**e, self._d**e, self._red)
        except ResourceLimitError:
            return RatFunc._reduced(self.num**e, self.den**e)

    def eval_at(self, q0) -> Fraction:
        """Evaluate at an exact rational point of the reduced form."""
        q0 = Fraction(q0)
        d = self.den(q0)
        if d == 0:
            raise PoleError(f"pole at q = {format_rational(q0)}")
        return self.num(q0) / d

    def to_json(self) -> dict:
        return {"num": self.num.to_strings(), "den": self.den.to_strings()}

    def render(self, var: str = "q") -> str:
        n = self.num.render(var)
        if self.den == _POLY_ONE:
            return n
        return f"({n})/({self.den.render(var)})"

    def __repr__(self):
        return f"RatFunc({self.render()})"
