"""Scalar arithmetic against sympy's ``cancel``, an oracle that shares no
code with the polynomial kernel.

Each result of ``+ - * /`` and ``bar`` must be the same rational function
as sympy's, and in lowest terms: its denominator has the degree of the
denominator ``cancel`` leaves.  The file is skipped when sympy is missing;
sympy is never a dependency of the package.
"""
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from affinetl import Scalar

sympy = pytest.importorskip("sympy")
v = sympy.Symbol("v")

polys = st.lists(st.integers(-5, 5), min_size=1, max_size=4).map(tuple)
scalars = st.builds(Scalar, polys, polys.filter(any))


def as_expr(p):
    return sum((c * v ** i for i, c in enumerate(p)), sympy.Integer(0))


def assert_agrees(got: Scalar, expr):
    num, den = sympy.fraction(sympy.cancel(expr))
    assert sympy.expand(as_expr(got.num) * den - num * as_expr(got.den)) == 0
    assert len(got.den) - 1 == sympy.Poly(den, v).degree()


@given(scalars, scalars)
@settings(max_examples=40, deadline=None)
def test_scalar_arithmetic_agrees_with_sympy_cancel(a, b):
    ea = as_expr(a.num) / as_expr(a.den)
    eb = as_expr(b.num) / as_expr(b.den)
    assert_agrees(a + b, ea + eb)
    assert_agrees(a - b, ea - eb)
    assert_agrees(a * b, ea * eb)
    if not b.is_zero():
        assert_agrees(a / b, ea / eb)
    assert_agrees(a.bar(), ea.subs(v, 1 / v))
