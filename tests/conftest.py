"""Shared helpers: the seeded rng, exact-plus-numeric comparison, the
results of the `verify` batteries, and free reduction of braid words.

Every equality assertion that guards an identity also re-checks it by exact
rational evaluation at a handful of sample points, so a bug in the
polynomial kernel cannot silently certify a false identity.
"""
from fractions import Fraction

import pytest

from affinetl import BraidWord, DivisionByZero, Scalar

# sample points for numeric re-checks; small odd rationals dodge the poles
# at v = 0 and v^2 = -1 that the algebra's denominators can have
EVAL_POINTS = [Fraction(2), Fraction(1, 2), Fraction(3), Fraction(-2), Fraction(5, 3)]


def eval_safe(c: Scalar, v0: Fraction):
    try:
        return c.eval_at(v0)
    except DivisionByZero:
        return None


def assert_scalar_equal(a: Scalar, b: Scalar, msg: str = ""):
    assert a == b, f"{msg}: {a} != {b}" if msg else f"{a} != {b}"
    for v0 in EVAL_POINTS:
        ea, eb = eval_safe(a, v0), eval_safe(b, v0)
        if ea is not None and eb is not None:
            assert ea == eb, f"{msg}: numeric mismatch at v={v0}"


def assert_element_equal(x, y, msg: str = ""):
    assert x.graph == y.graph, msg
    keys = set(x.terms) | set(y.terms)
    zero = Scalar(())
    for w in keys:
        assert_scalar_equal(
            x.terms.get(w, zero), y.terms.get(w, zero), f"{msg} at {w}"
        )


def assert_checks(results):
    """Every result of a ``verify`` battery holds."""
    failed = [r.name for r in results if not r.ok]
    assert results and not failed, f"failed checks: {failed}"


def free_reduce(b: BraidWord) -> BraidWord:
    """Cancel adjacent inverse letter pairs, repeatedly."""
    out: list = []
    for s, e in b.letters:
        if out and out[-1] == (s, -e):
            out.pop()
        else:
            out.append((s, e))
    return BraidWord(b.gens, tuple(out))


@pytest.fixture
def rng():
    import random

    return random.Random(20260810)
