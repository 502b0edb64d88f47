"""
Exact arithmetic in the field Q(v) of rational functions in one variable v.

The base variable is the square root of the Hecke parameter, so the parameter
itself is q = v^2 and every half-integer power of q is an honest polynomial.
A value is a pair of integer-coefficient polynomials (numerator, denominator)
kept in canonical form, which makes equality and hashing plain tuple work:

- the denominator is never the zero polynomial,
- gcd(numerator, denominator) = 1,
- the integer content of the pair is 1,
- the leading coefficient of the denominator is positive.

Polynomials are dense coefficient tuples starting with the constant term,
as in ``(0, 0, 1)`` for v^2.  Degrees stay small at the scales this package
targets, where the fastest gcd is the heuristic one: one integer gcd of the
two polynomials' values at a large enough integer, read back as a
polynomial (:func:`_pgcd`).

The subring Z[v, 1/v] of Laurent polynomials has its own gcd-free type,
:class:`Laurent`, for the computations whose values never leave it.  Both
types run on the one polynomial kernel: ``_padd``, ``_pmul`` and ``_pneg``.

>>> print(DELTA * (ONE + Q) ** 2)
v^2
>>> print(parse_scalar("q/(1+q)^2"))
v^2/(v^4+2*v^2+1)
>>> parse_scalar("-v/(1+v^2)") == -V / (ONE + Q)
True
"""
from __future__ import annotations

import math
from contextvars import ContextVar
from functools import lru_cache

from .errors import DivisionByZero, InexactDivision, ParseError

# the work charge of a failed heuristic-gcd point, set while a parser
# computes a sum or product (see :meth:`_ScalarParser.run`)
_gcd_meter = ContextVar("_gcd_meter", default=None)

# ---------------------------------------------------------------------------
# dense integer polynomials as tuples, constant term first


def _ptrim(coeffs) -> tuple[int, ...]:
    coeffs = tuple(coeffs)
    n = len(coeffs)
    while n and not coeffs[n - 1]:
        n -= 1
    return coeffs[:n]


def _padd(a, b, off=0):
    """a + v^off b, for off >= 0, trimmed at the top."""
    out = list(a)
    out.extend([0] * (off + len(b) - len(out)))
    for i, d in enumerate(b, off):
        out[i] += d
    return _ptrim(out)


def _pneg(a):
    return tuple(-c for c in a)


def _pmul(a, b):
    """The product of two trimmed polynomials, trimmed as it is: Z is a
    domain, so the product of two nonzero end terms is nonzero."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return ()
    if len(b) == 1:
        d = b[0]
        return a if d == 1 else tuple(c * d for c in a)
    out = [0] * (len(a) + len(b) - 1)
    for j, d in enumerate(b):
        if d:
            for i, c in enumerate(a, j):
                out[i] += c * d
    return tuple(out)


def _pprimitive(a):
    """Primitive part with positive leading coefficient."""
    if not a:
        return ()
    g = math.gcd(*a)
    if a[-1] < 0:
        g = -g
    return tuple(c // g for c in a)


def _pgcd(a, b):
    """The primitive gcd g of two nonconstant polynomials, with positive
    leading coefficient, and the cofactors: ``(g, a/g, b/g)``.  A gcd of 1
    returns ``a`` and ``b`` themselves.

    This is the heuristic gcd of Char, Geddes and Gonnet (J. Symbolic
    Comput. 7, 1989): one integer gcd h = gcd(a(x), b(x)) at an integer
    x >= 2 min(|a|, |b|) + 2, where |.| is the largest absolute coefficient.
    The digits of h in base x, each taken in (-x/2, x/2], are the
    coefficients of a candidate G whose primitive part is accepted once it
    divides both a and b; otherwise x grows and the step repeats.

    Acceptance is sound.  Say |a| <= |b| and G divides both, so the gcd g is
    G c for some c in Z[v], and a = g a', b = g b'.  Then h = |g(x)| m with
    m = gcd(a'(x), b'(x)), and h is also the content k of the candidate
    times G(x), so c(x) divides k, and |k| <= x/2 as k lc(G) is a digit.
    Every root of c is a root of a, of modulus below 1 + |a| <= x/2 by
    Cauchy's bound, so a nonconstant c has |c(x)| > (x/2)^deg c >= |k|:
    c is constant, and G is the gcd.  A constant candidate is the gcd 1.

    The loop ends.  a' and b' are coprime, so s a' + t b' = r for some s, t
    in Z[v] and a nonzero integer r (their resultant, when neither is
    constant), and m divides r, which does not depend on x.  Once x exceeds
    twice the largest coefficient of r g, the digits of h are those of m g,
    whose primitive part is g.

    A failed point needs m >= x / (2 |g|), so a divisor of r near x.  The
    point grows by the factor 73794/27011 of Char, Geddes and Gonnet, not
    by an affine map: x -> 2x + 1 doubles x + 1, so 1 + v against
    1 + v + 2^k fails at each of about k points.  Under a parser, each
    failed point is charged to its work budget (:class:`_ScalarParser`),
    which stops a crafted pair that fails at many points.
    """
    x = 2 * min(max(map(abs, a)), max(map(abs, b))) + 29
    while True:
        ax, bx = _peval(a, x), _peval(b, x)
        h = math.gcd(ax, bx)
        digits = []
        while h:
            h, d = divmod(h, x)
            if d > x // 2:
                d -= x
                h += 1
            digits.append(d)
        if len(digits) == 1:
            return (1,), a, b
        g = _pprimitive(digits)
        try:
            return g, _pdiv_exact(a, g), _pdiv_exact(b, g)
        except InexactDivision:
            charge = _gcd_meter.get()
            if charge is not None:
                # a gcd of integers of n and m bits costs about n m
                charge((1 + ax.bit_length() // 512) * (1 + bx.bit_length() // 512))
            x = x * 73794 // 27011


def _pdiv_exact(a, b):
    """Exact quotient a/b in Z[v], or ``InexactDivision`` if b does not
    divide a.

    >>> _pdiv_exact((1, 0, 1), (1, 1))
    Traceback (most recent call last):
    ...
    affinetl.errors.InexactDivision: inexact polynomial division
    """
    if not a:
        return ()
    quo = [0] * (len(a) - len(b) + 1)
    rem = list(a)
    lb = b[-1]
    for k in range(len(quo) - 1, -1, -1):
        t, r = divmod(rem[k + len(b) - 1], lb)
        if r:
            raise InexactDivision("inexact polynomial division")
        quo[k] = t
        if t:
            for i, d in enumerate(b):
                rem[k + i] -= t * d
    if any(rem):
        raise InexactDivision("inexact polynomial division")
    return _ptrim(quo)


def _canonical_pair(num, den):
    """The canonical form of num/den, two trimmed polynomials coprime over
    Q(v): zero as ``((), (1,))``; otherwise the joint integer content
    divided out and the leading coefficient of den made positive."""
    if not num:
        return (), (1,)
    c = math.gcd(*num, *den)
    if den[-1] < 0:
        c = -c
    if c == 1:
        return num, den
    return tuple(x // c for x in num), tuple(x // c for x in den)


def _peval(a, x):
    """a(x) by Horner's rule, at an integer or a Fraction x."""
    acc = 0
    for c in reversed(a):
        acc = acc * x + c
    return acc


def _istr(n: int) -> str:
    """The digits of n >= 0, split by a power of 10 past the digit limit of ``str``."""
    if n.bit_length() < 2000:  # at most 603 digits, below any limit str can have
        return str(n)
    k = n.bit_length() * 3 // 20  # about half of the digits
    hi, lo = divmod(n, 10 ** k)
    return _istr(hi) + _istr(lo).zfill(k)


def _pfmt(a) -> str:
    if not a:
        return "0"
    parts = []
    for i in range(len(a) - 1, -1, -1):
        c = a[i]
        if c == 0:
            continue
        sign = "-" if c < 0 else ("+" if parts else "")
        c = abs(c)
        if i == 0:
            body = _istr(c)
        else:
            var = "v" if i == 1 else f"v^{i}"
            body = var if c == 1 else f"{_istr(c)}*{var}"
        parts.append(sign + body)
    return "".join(parts)


# ---------------------------------------------------------------------------


class Scalar:
    """An element of Q(v), always stored in canonical form.

    >>> Scalar.from_int(2) + Scalar.from_int(3)
    Scalar('5')
    >>> (V ** 2 / (ONE + V ** 2)).bar()
    Scalar('1/(v^2+1)')
    >>> V * V == Q
    True
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        num, den = _ptrim(num), _ptrim(den)
        if not den:
            raise DivisionByZero("zero denominator")
        if len(den) > 1 and len(num) > 1:
            _, num, den = _pgcd(num, den)
        self.num, self.den = _canonical_pair(num, den)

    @classmethod
    def _reduced(cls, num, den) -> "Scalar":
        """Fast constructor for trimmed num/den already coprime over Q(v)."""
        self = object.__new__(cls)
        self.num, self.den = _canonical_pair(num, den)
        return self

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_int(cls, n: int) -> "Scalar":
        return cls((n,)) if n else cls(())

    @staticmethod
    def _coerce(x):
        if isinstance(x, Scalar):
            return x
        if isinstance(x, int):
            return Scalar.from_int(x)
        return None

    # -- ring structure ------------------------------------------------------

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        b, d = self.den, other.den
        if b == d:
            t = _padd(self.num, other.num)
            if len(b) > 1 and len(t) > 1:
                _, t, b = _pgcd(t, b)
            return Scalar._reduced(t, b)
        # t / (b d / g) with g = gcd(b, d); common factors of the sum live in g
        if len(b) > 1 and len(d) > 1:
            g, db, dd = _pgcd(b, d)
        else:
            g, db, dd = (1,), b, d
        t = _padd(_pmul(self.num, dd), _pmul(other.num, db))
        if len(g) > 1 and len(t) > 1:
            _, t, g = _pgcd(t, g)
        return Scalar._reduced(t, _pmul(_pmul(db, dd), g))

    __radd__ = __add__

    def __neg__(self):
        return Scalar._reduced(_pneg(self.num), self.den)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        n1, d1, n2, d2 = self.num, self.den, other.num, other.den
        if not n1 or not n2:
            return ZERO
        # cross-cancel: each factor is already reduced
        if len(n1) > 1 and len(d2) > 1:
            _, n1, d2 = _pgcd(n1, d2)
        if len(n2) > 1 and len(d1) > 1:
            _, n2, d1 = _pgcd(n2, d1)
        return Scalar._reduced(_pmul(n1, n2), _pmul(d1, d2))

    __rmul__ = __mul__

    def inv(self) -> "Scalar":
        if not self.num:
            raise DivisionByZero("inverse of zero")
        return Scalar._reduced(self.den, self.num)

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inv()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inv()

    def __pow__(self, k: int):
        if k < 0:
            return self.inv() ** (-k)
        out, base = ONE, self
        while k:
            if k & 1:
                out = out * base
            base = base * base
            k >>= 1
        return out

    # -- involution and evaluation -------------------------------------------

    def bar(self) -> "Scalar":
        """The field automorphism v -> 1/v (hence q -> 1/q).

        >>> Q.bar() == ONE / Q
        True
        >>> DELTA.bar() == DELTA
        True
        """
        if not self.num:
            return self
        # the reversed pair, one side times v^k with k = deg den - deg num,
        # needs no gcd: v -> 1/v keeps num and den coprime, both reversed
        # polynomials have a nonzero constant term, and so the v^k shift
        # adds no common factor
        k = len(self.den) - len(self.num)
        return Scalar._reduced((0,) * max(k, 0) + _ptrim(self.num[::-1]),
                               (0,) * max(-k, 0) + _ptrim(self.den[::-1]))

    def eval_at(self, v0):
        """Exact value at a rational point v = v0, as a Fraction.

        >>> DELTA.eval_at(1)
        Fraction(1, 4)
        """
        from fractions import Fraction

        v0 = Fraction(v0)
        d = _peval(self.den, v0)
        if d == 0:
            raise DivisionByZero(f"denominator vanishes at v={v0}")
        return _peval(self.num, v0) / d

    # -- predicates, equality, text -------------------------------------------

    def is_zero(self) -> bool:
        return not self.num

    def is_one(self) -> bool:
        return self.num == (1,) and self.den == (1,)

    def __eq__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self.den == (1,) and len(self.num) < 2:  # an integer hashes as the int it equals
            return hash(self.num[0] if self.num else 0)
        return hash((self.num, self.den))

    def __bool__(self):
        return bool(self.num)

    def __str__(self):
        return format_scalar(self)

    def __repr__(self):
        return f"Scalar('{format_scalar(self)}')"


ZERO = Scalar(())
ONE = Scalar((1,))
V = Scalar((0, 1))
Q = Scalar((0, 0, 1))
# the loop parameter: q/(1+q)^2, the value of f_s f_t f_s = DELTA * f_s
DELTA = Q / (ONE + Q) ** 2


# ---------------------------------------------------------------------------
# the ring Z[v, 1/v] of Laurent polynomials, which needs no gcd


class Laurent:
    """An element of Z[v, 1/v]: v^lo times a dense integer polynomial,
    constant term first, trimmed at both ends so that equal values have
    equal fields.  Zero has lo = 0 and no coefficients.

    Sums and products stay in the ring and need no gcd; :meth:`to_scalar`
    leaves it, at the edge.

    >>> x = Laurent(-1, (1, 0, 1))
    >>> x * x - Laurent(0, (2,))
    Laurent(-2, (1, 0, 0, 0, 1))
    >>> print((x * x).to_scalar())
    (v^4+2*v^2+1)/(v^2)
    """

    __slots__ = ("lo", "coeffs")

    def __init__(self, lo: int, coeffs):
        coeffs = _ptrim(coeffs)
        start = 0
        while start < len(coeffs) and not coeffs[start]:
            start += 1
        self.lo = lo + start if coeffs else 0
        self.coeffs = coeffs[start:]

    @classmethod
    def _trimmed(cls, lo: int, coeffs: tuple) -> "Laurent":
        """Fast constructor for coefficients already trimmed at both ends."""
        self = object.__new__(cls)
        self.lo = lo
        self.coeffs = coeffs
        return self

    def __add__(self, other):
        if not other.coeffs:
            return self
        if not self.coeffs:
            return other
        a, b = (self, other) if self.lo <= other.lo else (other, self)
        p = _padd(a.coeffs, b.coeffs, b.lo - a.lo)
        # the low end can cancel only when both operands start at one power
        return Laurent(a.lo, p) if a.lo == b.lo else Laurent._trimmed(a.lo, p)

    def __neg__(self):
        return Laurent._trimmed(self.lo, _pneg(self.coeffs))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        p = _pmul(self.coeffs, other.coeffs)
        return Laurent._trimmed(self.lo + other.lo, p) if p else L_ZERO

    def shift(self, k: int) -> "Laurent":
        """The product with v^k."""
        return Laurent._trimmed(self.lo + k, self.coeffs) if self.coeffs else self

    def div_exact(self, other: "Laurent") -> "Laurent":
        """The quotient in Z[v, 1/v]: a shift, then an exact polynomial
        quotient, which raises ``InexactDivision`` if ``other`` does not
        divide."""
        if not other.coeffs:
            raise DivisionByZero("Laurent division by zero")
        return Laurent(self.lo - other.lo, _pdiv_exact(self.coeffs, other.coeffs))

    def to_scalar(self) -> Scalar:
        """The same value in Q(v).

        >>> Laurent(-3, (1, 0, 1)).to_scalar() == (ONE + Q) / V ** 3
        True
        """
        return self.over_qp1_pow(0)

    def over_qp1_pow(self, n: int) -> Scalar:
        """This value over (1+q)^n, in Q(v), with no gcd.  1+q = 1+v^2 is
        irreducible over Q, so it is divided out while the numerator vanishes
        at v = i; the trimmed numerator left is coprime to v^a (1+q)^b."""
        p = self.coeffs
        while n and p and sum(p[0::4]) == sum(p[2::4]) and sum(p[1::4]) == sum(p[3::4]):
            p, n = _pdiv_exact(p, (1, 0, 1)), n - 1
        den = qp1_laurent_pow(n).coeffs if n else (1,)
        return Scalar._reduced((0,) * max(self.lo, 0) + p, (0,) * max(-self.lo, 0) + den)

    def __eq__(self, other):
        if not isinstance(other, Laurent):
            return NotImplemented
        return self.lo == other.lo and self.coeffs == other.coeffs

    def __bool__(self):
        return bool(self.coeffs)

    def __repr__(self):
        return f"Laurent({self.lo}, {self.coeffs})"


L_ZERO = Laurent(0, ())
L_ONE = Laurent(0, (1,))


@lru_cache(maxsize=None)
def qp1_laurent_pow(k: int) -> Laurent:
    """(1+q)^k in Z[v, 1/v], for k >= 0."""
    return L_ONE if k == 0 else qp1_laurent_pow(k - 1) * Laurent(0, (1, 0, 1))


@lru_cache(maxsize=None)
def delta_pow(k: int) -> Scalar:
    return DELTA ** k


# ---------------------------------------------------------------------------
# text form: signed integers, v and q (= v^2), + - * / ^, parentheses


def format_scalar(s: Scalar) -> str:
    """Canonical text, ``P(v)`` or ``P(v)/(Q(v))``."""
    num = _pfmt(s.num)
    if s.den == (1,):
        return num
    if len([c for c in s.num if c != 0]) > 1:
        num = f"({num})"
    return f"{num}/({_pfmt(s.den)})"


# the largest degree in v of a parsed value, of each power in it, and of each
# partial sum or product, checked on a bound of it before the operation is
# done: parsing costs grow with its square, and printed values stay far
# below it
MAX_PARSE_DEGREE = 512

# the most work one parser may do, charged before each operation: about
# (deg a + 1)(deg b + 1) for a sum, product or quotient of a and b, but
# linear for a sum of two polynomials, which adds term by term; for a power,
# the half power squared that its last squaring multiplies, but linear when
# the base is a single term such as v.  Each charge is multiplied by
# (1 + B // 512)^2 when the coefficients, of the operands or of the half
# power, may have B bits: products and gcds of big integers cost more.  A
# gcd point that fails (see :func:`_pgcd`) is charged as it happens.  Over
# it the parse stops within about a second; the text of DELTA^64 (4,347
# characters) costs about 107,000
MAX_PARSE_WORK = 10 ** 6


def _degree(x: Scalar) -> int:
    return max(len(x.num), len(x.den)) - 1


def _bits(x: Scalar) -> int:
    """The bit length of the largest coefficient of x."""
    return max(map(abs, x.num + x.den)).bit_length()


class _ScalarParser:
    """Reads a text left to right under one work budget, which also covers
    the sums of parsed values that :meth:`add` makes (the like terms of an
    element).  :meth:`parse` reads a scalar text; ``parse_element`` calls
    :meth:`start` once and reads a whole element, so its error positions
    count from the start of its text.  A product (:meth:`term`) stops before
    a ``*`` followed by ``[``, where an element's word begins."""

    def __init__(self):
        self.work, self.pos = 0, None  # no text position before a parse

    def start(self, text: str):
        self.text, self.pos = text, 0

    def parse(self, text: str) -> Scalar:
        self.start(text)
        out = self.expr()
        if self.peek():
            self.error("trailing input")
        self.pos = None  # a later sum of parsed values has no text position
        return out

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def at(self, chars) -> bool:
        ch = self.peek()
        return ch != "" and ch in chars

    def take(self, ch):
        if self.peek() != ch:
            self.error(f"expected {ch!r}")
        self.pos += 1

    def integer(self) -> int:
        self.skip_ws()
        start = self.pos
        if self.peek() == "-":
            self.pos += 1
        digits = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == digits:
            self.error("expected integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError as exc:  # more digits than Python converts
            self.error(str(exc))

    def signs(self) -> int:
        """The product of a run of ``+`` and ``-`` signs, as 1 or -1."""
        sign = 1
        while self.at("+-"):
            if self.peek() == "-":
                sign = -sign
            self.pos += 1
        return sign

    def expr(self) -> Scalar:
        out = self.signs() * self.term()
        while self.at("+-"):
            op = self.peek()
            self.pos += 1
            t = self.term()
            out = self.add(out, t if op == "+" else -t)
        return out

    def term(self) -> Scalar:
        out = self.factor()
        while self.at("*/"):
            op, star = self.peek(), self.pos
            self.pos += 1
            if op == "*" and self.peek() == "[":
                self.pos = star  # the product ends; an element's word follows
                break
            f = self.factor()
            out = self.mul(out, f if op == "*" else f.inv())
        return out

    def factor(self) -> Scalar:
        base = self.primary()
        if self.peek() != "^":
            return base
        self.pos += 1
        k = self.integer()
        # checked before the power is built; an integer base counts as
        # degree 1
        if abs(k) * max(_degree(base), 1) > MAX_PARSE_DEGREE:
            self.error(f"power exceeds degree {MAX_PARSE_DEGREE}")
        halves = (abs(k) + 1) // 2
        half = halves * _degree(base)
        single_term = not any(base.num[:-1] + base.den[:-1])
        # |coefficient of p^j| <= (sum of |coefficients of p|)^j
        norm = max(sum(map(abs, base.num)), sum(map(abs, base.den)))
        self.step(abs(k) * _degree(base), 0 if single_term else half, half,
                  halves * (norm - 1).bit_length())
        return base ** k

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        if a.den == b.den:
            degree = max(_degree(a), _degree(b))
        else:
            degree = max(len(a.num) + len(b.den), len(b.num) + len(a.den),
                         len(a.den) + len(b.den)) - 2
        bits = max(_bits(a), _bits(b))
        if len(a.den) == len(b.den) == 1:  # polynomials add term by term
            self.step(degree, 0, _degree(a) + _degree(b), bits)
        else:
            self.step(degree, _degree(a), _degree(b), bits)
        return self.run(Scalar.__add__, a, b)

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        self.step(max(len(a.num) + len(b.num), len(a.den) + len(b.den)) - 2,
                  _degree(a), _degree(b), max(_bits(a), _bits(b)))
        return self.run(Scalar.__mul__, a, b)

    def run(self, op, a: Scalar, b: Scalar) -> Scalar:
        """op(a, b), with each failed point of its gcds charged to the
        budget."""
        token = _gcd_meter.set(self.charge)
        try:
            return op(a, b)
        finally:
            _gcd_meter.reset(token)

    def step(self, degree: int, a_degree: int, b_degree: int, bits: int):
        """Refuse, before it is done, an operation whose value may pass the
        degree cap or whose work, (a_degree + 1)(b_degree + 1) products of
        coefficients of up to ``bits`` bits, would pass the budget."""
        if degree > MAX_PARSE_DEGREE:
            self.error(f"value exceeds degree {MAX_PARSE_DEGREE}")
        self.charge((a_degree + 1) * (b_degree + 1) * (1 + bits // 512) ** 2)

    def charge(self, work: int):
        self.work += work
        if self.work > MAX_PARSE_WORK:
            self.error(f"parse work exceeds the budget of {MAX_PARSE_WORK}")

    def primary(self) -> Scalar:
        ch = self.peek()
        if ch == "(":
            self.pos += 1
            out = self.expr()
            self.take(")")
            return out
        if ch == "v":
            self.pos += 1
            return V
        if ch == "q":
            self.pos += 1
            return Q
        if ch.isdigit():
            return Scalar.from_int(self.integer())
        self.error("expected a value")


def parse_scalar(text: str) -> Scalar:
    """Parse the scalar grammar; inverse of :func:`format_scalar`.

    >>> parse_scalar("q/(1+q)^2") == DELTA
    True
    >>> parse_scalar(format_scalar(DELTA ** 3)) == DELTA ** 3
    True
    """
    return _ScalarParser().parse(text)
