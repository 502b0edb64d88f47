import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetl import (
    DELTA,
    ONE,
    Q,
    V,
    ZERO,
    DivisionByZero,
    InexactDivision,
    ParseError,
    Scalar,
    format_scalar,
    parse_scalar,
)
from affinetl.scalars import (
    Laurent,
    _pdiv_exact,
    _peval,
    _pgcd,
    _pmul,
    _pprimitive,
    qp1_laurent_pow,
)

ints = st.integers(-6, 6)
polys = st.lists(ints, min_size=1, max_size=4).map(tuple)
nonzero_polys = polys.filter(lambda p: any(p))
scalars = st.builds(lambda n, d: Scalar(n, d), polys, nonzero_polys)
nonzero_scalars = scalars.filter(lambda s: not s.is_zero())


def test_loop_parameter_identities():
    assert DELTA * (ONE + Q) ** 2 == Q
    assert DELTA + ZERO == DELTA
    assert DELTA.inv() == (ONE + Q) ** 2 / Q
    a = -(ONE + Q) / V
    b = -V / (ONE + Q)
    assert a * b == ONE


def test_inverse():
    assert Q.inv() == ONE / Q
    assert Q.inv() * Q == ONE
    with pytest.raises(DivisionByZero):
        ZERO.inv()


def test_bar_examples():
    assert Q.bar() == ONE / Q
    assert DELTA.bar() == DELTA
    w = V ** 3 + 2
    assert w.bar().bar() == w
    assert ((ONE + Q) / Q).bar() == ONE + Q


def test_eval_at():
    assert DELTA.eval_at(1) == Fraction(1, 4)
    assert Q.eval_at(2) == 4
    assert (ONE / (ONE + Q)).eval_at(3) == Fraction(1, 10)
    with pytest.raises(DivisionByZero):
        (ONE / V).eval_at(0)


def test_parse_examples():
    assert parse_scalar("q/(1+q)^2") == DELTA
    assert parse_scalar("-v/(1+v^2)") == -V / (ONE + Q)
    with pytest.raises((ParseError, DivisionByZero)):
        parse_scalar("1/0")
    with pytest.raises(ParseError):
        parse_scalar("v + ")
    with pytest.raises(ParseError):
        parse_scalar("w")


def test_parse_bounds_the_degree():
    # every power, partial sum and product is checked before it can grow
    # far past the bound, so hostile text costs little
    assert parse_scalar("(1+q)^256") == (ONE + Q) ** 256
    assert parse_scalar("v^-512") == V ** -512
    for text in ("(1+q)^257", "((1+q)^100000)", "v^100000", "q^-100000", "7^513",
                 "(1+q)^256*(1+q)^256*q", "(1+q)^256/(2+q)^256 + 1/(3+q)^256"):
        with pytest.raises(ParseError, match="degree 512"):
            parse_scalar(text)
    with pytest.raises(ParseError, match="digits"):
        parse_scalar("1" * 5000)


def test_parse_round_trips_the_solver_values():
    # the bound leaves room for the degree-120 values of solve_alpha_beta(20)
    from affinetl import solve_alpha_beta

    values = [x for xs in solve_alpha_beta(20) for x in xs]
    assert max(max(len(x.num), len(x.den)) - 1 for x in values) == 120
    for x in values:
        assert parse_scalar(format_scalar(x)) == x


def test_parse_work_is_budgeted():
    # printed values round-trip well within the budget ...
    for k in range(21):
        assert parse_scalar(format_scalar(DELTA ** k)) == DELTA ** k
    # ... while text that only repeats costly steps is refused part way, and
    # a sum that may pass the degree bound is refused before it is formed
    with pytest.raises(ParseError, match="budget"):
        parse_scalar("+".join(["(1+v)^512"] * 20))
    with pytest.raises(ParseError, match="degree 512"):
        parse_scalar("1/(1+v)^256 + 1/(2+v)^256 + 1/(3+v)^256")


def test_parse_charges_by_coefficient_bits():
    # an integer base passes the degree cap, so a power is charged by the
    # bits of its base, and a sum or product by those of its operands
    for text in ("9" * 4000 + "^512", "9" * 4000 + "^512*" + "9" * 3000 + "^512",
                 "(99+v)^512", "1/(" + "9" * 4000 + "+v^200)+1/(" + "8" * 4000 + "+v^250)"):
        with pytest.raises(ParseError, match="budget"):
            parse_scalar(text)
    assert parse_scalar("9^512") == Scalar.from_int(9 ** 512)
    assert parse_scalar("9" * 4000 + "^2") == Scalar.from_int(int("9" * 4000) ** 2)
    assert parse_scalar("(9+v)^512") == (V + 9) ** 512


# the scalar texts of README.md: inputs, printed values and the trace table
README_SCALARS = ("q/(1+q)^2", "-1/q", "1/(1+q)", "-v^8+v^6+v^2", "v^2/(v^4+2*v^2+1)",
                  "2*v^144+v^74+v^70", "-v/(1+q)", "-1/(1+q)^3", "-q^3/(1+q)^3",
                  "(v^4+2*v^2+1)/(v^2)", "-v/(1+v^2)")


def test_readme_scalars_round_trip():
    for text in README_SCALARS:
        x = parse_scalar(text)
        assert parse_scalar(format_scalar(x)) == x


def test_big_coefficient_fractions_parse_quickly():
    # the primitive remainder sequence took seconds on this sum; the
    # heuristic gcd takes a few integer gcds
    x = parse_scalar("1/(1+v)^170+1/(2+v)^170+1/(3+v)^170")
    for v0 in (1, 2):
        assert x.eval_at(v0) == sum(Fraction(1, (c + v0) ** 170) for c in (1, 2, 3))


def test_format_prints_coefficients_of_any_size():
    # str() refuses an int of more than 4,300 digits
    digits = "1" + "0" * 4999 + "7"
    assert format_scalar(Scalar((10 ** 5000 + 7,))) == digits
    assert format_scalar(Scalar((-(10 ** 5000 + 7),))) == "-" + digits
    assert format_scalar(Scalar((1, 10 ** 5000 + 7))) == digits + "*v+1"
    n = 3 ** 20000
    text = format_scalar(Scalar((n,)))
    assert len(text) == 9543 and text[-40:] == str(n % 10 ** 40)
    assert text[:40] == str(n // 10 ** (len(text) - 40))


@given(scalars)
@settings(max_examples=200, deadline=None)
def test_format_parse_roundtrip(a):
    text = format_scalar(a)
    assert parse_scalar(text) == a
    assert format_scalar(parse_scalar(text)) == text


@given(scalars, scalars, scalars)
@settings(max_examples=150, deadline=None)
def test_field_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ZERO == a
    assert a * ONE == a
    assert a - a == ZERO


@given(nonzero_scalars)
@settings(max_examples=100, deadline=None)
def test_inverses_cancel(a):
    assert a * a.inv() == ONE
    assert a ** 3 * a ** -3 == ONE


@given(scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_bar_is_automorphism(a, b):
    assert (a * b).bar() == a.bar() * b.bar()
    assert (a + b).bar() == a.bar() + b.bar()
    assert a.bar().bar() == a


@given(scalars, scalars)
@settings(max_examples=100, deadline=None)
def test_ops_agree_with_rational_evaluation(a, b):
    for v0 in (Fraction(2), Fraction(-3), Fraction(5, 2)):
        try:
            ea, eb = a.eval_at(v0), b.eval_at(v0)
        except DivisionByZero:
            continue
        assert (a + b).eval_at(v0) == ea + eb
        assert (a * b).eval_at(v0) == ea * eb
        assert (a - b).eval_at(v0) == ea - eb


def test_zero_and_negative_power_edges():
    with pytest.raises(DivisionByZero):
        ZERO ** -1
    assert (V ** 0) == ONE
    assert ZERO ** 3 == ZERO
    assert (ONE / V) ** 2 == ONE / Q


def test_canonical_equality_is_structural():
    a = Scalar((0, 2), (2,))  # 2v/2 == v
    assert a == V
    assert hash(a) == hash(V)
    # a value equal to an int hashes as that int, so they share a set or key
    for n in (0, 1, -1, 5, 2 ** 70):
        assert Scalar.from_int(n) == n and hash(Scalar.from_int(n)) == hash(n)
    assert len({ONE, 1}) == 1 and {0: "z"}.get(ZERO) == "z"
    assert Scalar((4,), (2,)) == 2 and hash(Scalar((4,), (2,))) == hash(2)
    b = Scalar((0, -1), (-1,))  # -v/-1
    assert b == V
    assert Scalar((0, 0, 2, 0, 2), (0, 2)) == (Q + ONE) * V  # v(q+1) with content


# ---------------------------------------------------------------------------
# the polynomial gcd, against the primitive remainder sequence


def _prs_gcd(a, b):
    """Primitive gcd over the integers, positive leading coefficient, by a
    primitive pseudo-remainder sequence: the Euclid that the heuristic gcd
    replaced, kept here as its oracle."""
    a, b = _pprimitive(a), _pprimitive(b)
    while b:
        r = list(a)
        while len(r) >= len(b):
            lead = r[-1]
            r = [c * b[-1] for c in r]
            for i, d in enumerate(b):
                r[len(r) - len(b) + i] -= lead * d
            while r and r[-1] == 0:
                r.pop()
        a, b = b, _pprimitive(tuple(r))
    return a


def _random_poly(rng, degree, bound):
    coeffs = [rng.randint(-bound, bound) for _ in range(degree)]
    return tuple(coeffs) + (rng.choice((-1, 1)) * rng.randint(1, bound),)


def test_heuristic_gcd_matches_the_prs_oracle():
    rng = random.Random(20261020)
    for _ in range(1500):
        bound = rng.choice((3, 100, 10 ** 6, 10 ** 12))
        common = _random_poly(rng, rng.randint(0, 4), bound)
        content = rng.choice((1, 1, -1, 6, -10 ** 12))
        a = _pmul(_pmul(common, _random_poly(rng, rng.randint(1, 5), bound)), (content,))
        b = _pmul(common, _random_poly(rng, rng.randint(1, 5), bound))
        g, a_g, b_g = _pgcd(a, b)
        assert g == _prs_gcd(a, b)
        assert _pmul(g, a_g) == a and _pmul(g, b_g) == b
        if g == (1,):
            assert a_g is a and b_g is b


def _gcd_points(monkeypatch, f):
    """f(), and the integer points at which the gcds inside it evaluated."""
    from affinetl import scalars

    points, peval = [], scalars._peval

    def spy(a, x):
        if isinstance(x, int) and x not in points:
            points.append(x)
        return peval(a, x)

    monkeypatch.setattr(scalars, "_peval", spy)
    out = f()
    monkeypatch.undo()
    return out, points


def test_heuristic_gcd_tries_a_second_point(monkeypatch):
    a, b = (13, 1), (-14, 7, -3)  # 13 + v and -14 + 7v - 3v^2 are coprime
    out, points = _gcd_points(monkeypatch, lambda: _pgcd(a, b))
    assert out == ((1,), a, b) and _prs_gcd(a, b) == (1,)
    assert len(points) >= 2
    x = points[0]
    h = math.gcd(_peval(a, x), _peval(b, x))
    assert (h % x, h // x) == a  # the first candidate is a itself ...
    with pytest.raises(InexactDivision):
        _pdiv_exact(b, a)  # ... which does not divide b


def test_gcd_points_keep_no_residue(monkeypatch):
    # 1 + v against 1 + v + 2^131072: x -> 2x + 1 would keep x + 1 dividing
    # 2^131072 for about 131,000 points, each with the wrong candidate 1 + v
    text = "1/(1+v)+1/(1+v+(2^512)^256)"
    x, points = _gcd_points(monkeypatch, lambda: parse_scalar(text))
    assert len(points) <= 3
    assert x.eval_at(1) == Fraction(1, 2) + Fraction(1, 2 + 2 ** 131072)


def _crafted_pair_text(monkeypatch, failures):
    """A sum 1/(1+v) + 1/(1+v+M) whose gcd fails at its first ``failures``
    points: M is a multiple of x + 1 at each, so the candidate there is the
    1 + v that does not divide 1 + v + M.  The points depend on 1 + v only,
    so each M is found from the points of the one before."""
    m = 1
    for done in range(failures):
        _, points = _gcd_points(monkeypatch, lambda: _pgcd((1, 1), (1 + m, 1)))
        assert len(points) == done + 1
        m *= points[-1] + 1
    return f"1/(1+v)+1/(1+v+{m})", f"1/(1+v)+1/(1+v+{m + 2})"


def test_failed_gcd_points_are_charged_to_the_parse(monkeypatch):
    from affinetl import scalars

    crafted, plain = _crafted_pair_text(monkeypatch, 40)
    works = {}
    for text in (crafted, plain):
        parser = scalars._ScalarParser()
        x, points = _gcd_points(monkeypatch, lambda: parser.parse(text))
        works[text] = parser.work
        m = int(text.rsplit("+", 1)[1][:-1])
        assert x.eval_at(1) == Fraction(1, 2) + Fraction(1, 2 + m)
    assert len(points) == 1  # the plain pair settles at its first point
    assert works[crafted] >= works[plain] + 40
    monkeypatch.setattr(scalars, "MAX_PARSE_WORK", works[plain] + 20)
    assert parse_scalar(plain)
    with pytest.raises(ParseError, match="budget"):
        parse_scalar(crafted)
    # outside a parser the gcd has no budget and runs to the answer
    m = int(crafted.rsplit("+", 1)[1][:-1])
    assert _pgcd((1, 1), (1 + m, 1)) == ((1,), (1, 1), (1 + m, 1))


# ---------------------------------------------------------------------------
# the Laurent ring Z[v, 1/v] of the e-basis kernel


def _random_laurent(rng):
    """Zero, a monomial, or a dense polynomial with padding zeros at both
    ends, random signs, content and a negative or positive shift."""
    kind = rng.randrange(4)
    if kind == 0:
        return Laurent(rng.randint(-5, 5), ())
    width = 1 if kind == 1 else rng.randint(2, 7)
    content = rng.choice((1, -1, 2, -3, 6))
    coeffs = [content * rng.randint(-4, 4) for _ in range(width)]
    pad = [0] * rng.randrange(3)
    return Laurent(rng.randint(-9, 6), pad + coeffs + pad)


def _direct_scalar(x):
    """The Scalar of a Laurent value, built through the gcd constructor."""
    shift = x.lo - min(x.lo, 0)
    return Scalar((0,) * shift + x.coeffs, (0,) * -min(x.lo, 0) + (1,))


def test_laurent_agrees_with_scalar_arithmetic():
    rng = random.Random(20261017)
    for _ in range(400):
        a, b = _random_laurent(rng), _random_laurent(rng)
        sa, sb = _direct_scalar(a), _direct_scalar(b)
        assert a.to_scalar() == sa
        assert (a + b).to_scalar() == sa + sb
        assert (a - b).to_scalar() == sa - sb
        assert (a * b).to_scalar() == sa * sb
        assert (-a).to_scalar() == -sa
        assert a.shift(3).to_scalar() == sa * V ** 3
        for x in (a + b, a - b, a * b):  # trimmed at both ends
            assert x == Laurent(x.lo - 1, (0,) + x.coeffs + (0,))
            assert not x.coeffs or (x.coeffs[0] and x.coeffs[-1])
            assert bool(x) == (not x.to_scalar().is_zero())
    assert Laurent(4, (0, 0)) == Laurent(0, ()) and not Laurent(4, (0, 0))
    assert Laurent(-2, (0, 3, 0)).lo == -1


def _random_scalar(rng):
    """num/den through the gcd constructor, with a common factor, zero low
    terms and a negative leading denominator coefficient among them."""
    num = [rng.randint(-4, 4) for _ in range(rng.randrange(6))]
    den = [0] * rng.randrange(3) + [rng.randint(-4, 4) for _ in range(rng.randrange(4))]
    den.append(rng.choice((-3, -1, 1, 2)))
    common = tuple(rng.randint(-2, 2) for _ in range(rng.randrange(3))) + (1,)
    return Scalar(_pmul(tuple(num), common), _pmul(tuple(den), common))


def test_both_rings_share_one_kernel():
    rng = random.Random(20261020)
    for _ in range(300):
        # Laurent sums and products are those of Q(v)
        a, b = _random_laurent(rng), _random_laurent(rng)
        for got, want in ((a + b, a.to_scalar() + b.to_scalar()),
                          (a - b, a.to_scalar() - b.to_scalar()),
                          (a * b, a.to_scalar() * b.to_scalar())):
            assert (got.to_scalar().num, got.to_scalar().den) == (want.num, want.den)
        # the gcd-free bar is the gcd constructor on the reversed pair, and
        # an involution
        x, y = _random_scalar(rng), _random_scalar(rng)
        dn, dd = len(x.num) - 1, len(x.den) - 1
        shift = (0,) * abs(dd - dn)
        rev_num, rev_den = tuple(reversed(x.num)), tuple(reversed(x.den))
        want = Scalar(shift + rev_num if dd >= dn else rev_num,
                      rev_den if dd >= dn else shift + rev_den)
        assert (x.bar().num, x.bar().den) == (want.num, want.den)
        assert (x.bar().bar().num, x.bar().bar().den) == (x.num, x.den)
        # hashing agrees with equality
        for u, w in ((x, y), (x, x.bar().bar()), (x + y, y + x), (x * y - y * x, ZERO)):
            assert (u == w) == ((u.num, u.den) == (w.num, w.den))
            if u == w:
                assert hash(u) == hash(w)


def test_laurent_to_scalar_is_canonical_without_gcd(monkeypatch):
    from affinetl import scalars

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd")

    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    x = Laurent(-3, (2, 0, -4, 6))  # content 2 on the numerator only
    assert x.to_scalar().num == (2, 0, -4, 6) and x.to_scalar().den == (0, 0, 0, 1)
    assert Laurent(2, (-1,)).to_scalar() == -Q
    assert str(Laurent(-1, (-1, 0, -1)).to_scalar()) == "(-v^2-1)/(v)"


def test_laurent_exact_quotient():
    x = Laurent(-1, (3, 0, 3)) * qp1_laurent_pow(4)
    assert x.div_exact(Laurent(2, (-3,))) == Laurent(-3, (-1, 0, -1)) * qp1_laurent_pow(4)
    assert x.div_exact(qp1_laurent_pow(5)) == Laurent(-1, (3,))
    assert Laurent(0, ()).div_exact(qp1_laurent_pow(2)) == Laurent(0, ())
    for divisor in (Laurent(0, (1, 1)), qp1_laurent_pow(6), Laurent(0, (2,))):
        with pytest.raises(InexactDivision):
            x.div_exact(divisor)
    with pytest.raises(DivisionByZero):
        x.div_exact(Laurent(0, ()))


# Laurents with zero, negative shifts and factors of (1+q)^j among them
laurents = st.builds(lambda lo, coeffs, j: Laurent(lo, coeffs) * qp1_laurent_pow(j),
                     st.integers(-8, 8), st.lists(ints, max_size=5), st.integers(0, 4))


@given(laurents, st.integers(0, 6))
@settings(max_examples=200, deadline=None)
def test_over_qp1_pow_is_the_gcd_constructor(x, n):
    from affinetl import scalars

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd")

    with mock.patch.object(scalars, "_pgcd", no_gcd):
        got = x.over_qp1_pow(n)
    want = Scalar((0,) * max(x.lo, 0) + x.coeffs,
                  (0,) * max(-x.lo, 0) + qp1_laurent_pow(n).coeffs)
    assert (got.num, got.den) == (want.num, want.den)


def test_invariant_checks_survive_optimize_flag():
    # library invariants raise typed errors, never asserts that -O removes
    import affinetl

    src = os.path.dirname(os.path.dirname(os.path.abspath(affinetl.__file__)))
    code = (
        "from affinetl.errors import InexactDivision, InvalidGenerator, NotFcWord\n"
        "from affinetl.algebra import TLElement\n"
        "from affinetl.coxeter import path\n"
        "from affinetl.scalars import ONE, Laurent, _pdiv_exact\n"
        "for call, exc in ((lambda: _pdiv_exact((1, 0, 1), (1, 1)), InexactDivision),\n"
        "                  (lambda: _pdiv_exact((1, 1), (1, 2)), InexactDivision),\n"
        "                  (lambda: Laurent(0, (1, 0, 1)).div_exact(Laurent(0, (1, 1))),\n"
        "                   InexactDivision),\n"
        "                  (lambda: TLElement.monomial(path(0), (0,)), InvalidGenerator),\n"
        "                  (lambda: TLElement(path(3), {(1, 0, 1): ONE}), NotFcWord)):\n"
        "    try:\n"
        "        call()\n"
        "    except exc:\n"
        "        continue\n"
        "    raise SystemExit(f'{call} did not raise {exc.__name__}')\n"
        "print('ok')\n"
    )
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip() == "ok"
