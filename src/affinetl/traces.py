"""
Trace functions on the two towers and the braid-closure invariant.

``jones_trace`` is the classical Markov trace on the path-graph algebras,
normalized so that the single positive generator in the T-system has trace 1
and adding a free strand multiplies the value by -(1+q)/sqrt(q).

``rho`` is the affine trace: collapse through ``E_map`` and take the
classical trace.  It is symmetric, invariant under the cycle rotation, and
satisfies the Markov conditions of the affine tower in both stabilization
signs; those properties are checked by the ``verify`` batteries rather than
assumed anywhere in the code.

``generic_trace2`` and ``generic_trace3`` evaluate the rotation-invariant
linear functionals on the rank-2 and rank-3 affine algebras from their
defining value tables.  The rank-3 table distinguishes the two rotation-orbit
families of long basis words because the affine trace provably assigns them
different values (see :func:`solve_alpha_beta`); leaving out the second
family's sequence collapses both onto the first.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

from .algebra import DEFAULT_MAX_LEN, TLElement, e_scale, e_word, multiply, word_product
from .coxeter import CoxeterGraph, affine, path, rotate, word_text
from .errors import (
    InvalidGenerator,
    LengthLimitExceeded,
    NotClassifiable,
    NotFcWord,
    RankMismatch,
    SingularSystem,
)
from .morphisms import BraidWord, _f_image
from .scalars import DELTA, L_ONE, L_ZERO, ONE, Q, V, Laurent, Scalar, qp1_pow

# the trace factors of the integral monomials e_w = (1+q)^|w| f_w:
# -1/v - v per free strand, -v per splitting at a top-generator occurrence
_E_FREE_STRAND = Laurent(-1, (-1, 0, -1))
_E_SPLIT = Laurent(1, (-1,))

# trace value gained by a strand the word never touches: -(1+q)/sqrt(q)
FREE_STRAND_FACTOR = _E_FREE_STRAND.to_scalar()


def _trace_sum(x: TLElement, value) -> Scalar:
    """The sum of c / (1+q)^|w| value(w) over the terms c f_w of x, where
    value(w) is the Laurent trace of the integral monomial e_w."""
    out = Scalar(())
    for w, c in x.terms.items():
        out = out + c / qp1_pow(len(w)) * value(w).to_scalar()
    return out


def jones_trace(x: TLElement) -> Scalar:
    """The classical Markov trace of an element over a path graph."""
    if x.graph.is_affine:
        raise RankMismatch("jones_trace expects a classical-algebra element")
    return _trace_sum(x, lambda w: _trace_f_word(x.graph.gens, w))


@lru_cache(maxsize=None)
def _trace_f_word(n: int, letters: tuple[int, ...]) -> Laurent:
    """Trace of the integral monomial e_w = (1+q)^|w| f_w over path(n).

    If the top generator is absent, the word lives one rank down and picks
    up the free-strand factor; if present, splitting b e_top c -> b c costs
    one split factor and the flanks multiply back into a single monomial
    times q^loops (1+q)^squares.  In an FC word the top generator occurs
    at most once.
    """
    if n == 0:
        if letters:
            raise InvalidGenerator(f"letters {letters} on the empty path graph")
        return L_ONE
    top = [i for i, s in enumerate(letters) if s == n - 1]
    if not top:
        return _E_FREE_STRAND * _trace_f_word(n - 1, letters)
    if len(top) > 1:
        raise NotFcWord(f"top generator repeated in the path word {letters}")
    i = top[0]
    loops, squares, word = word_product(path(n - 1), letters[:i], letters[i + 1:])
    return e_scale(_E_SPLIT * _trace_f_word(n - 1, word), loops, squares)


@lru_cache(maxsize=None)
def _rho_word(m: int, letters: tuple[int, ...]) -> Laurent:
    """rho of the integral monomial e_w: the trace of its E image."""
    out = L_ZERO
    for u, d in _f_image("E", m, letters).items():
        out = out + d * _trace_f_word(m - 1, u)
    return out


def rho(x: TLElement) -> Scalar:
    """The affine Markov trace: collapse with E_map, then jones_trace.

    >>> rho(TLElement.one(affine(3))) == (ONE + Q) ** 2 / Q
    True
    >>> rho(TLElement.monomial(affine(3), (0,))) == ONE
    True
    """
    if not x.graph.is_affine:
        raise RankMismatch("rho expects an affine-algebra element")
    return _trace_sum(x, lambda w: _rho_word(x.graph.gens, w))


def invariant(b: BraidWord, max_len: int = DEFAULT_MAX_LEN) -> Scalar:
    """The link invariant of the closure of an affine braid word.

    No writhe correction is applied: the trace satisfies both stabilization
    signs on the nose, so the raw composite is already invariant and the
    unknot receives value 1.  It is rho of the braid image, summed over
    Z[v, 1/v] in the e-basis, where the (1+q)^|w| factors of the image and
    of the trace cancel.

    >>> from .morphisms import parse_braid
    >>> print(invariant(parse_braid("s1 s1 s1", 2)))
    -v^8+v^6+v^2
    """
    m = b.gens
    out = L_ZERO
    for w, c in e_word(b.graph, "T", b.letters, max_len).items():
        out = out + c * _rho_word(m, w)
    return out.to_scalar()


# ---------------------------------------------------------------------------
# generic rotation-invariant traces at ranks 2 and 3


@dataclass(frozen=True)
class TraceParamsTL2:
    """Values on 1, on a single generator, and on the alternating words."""

    A0: Scalar
    A1: Scalar
    alpha: Callable[[int], Scalar]


def generic_trace2(p: TraceParamsTL2, x: TLElement) -> Scalar:
    """Evaluate the rank-2 functional: the basis words alternate between the
    two generators, so only the length matters."""
    if x.graph != affine(2):
        raise RankMismatch("generic_trace2 lives on the rank-2 affine algebra")
    out = Scalar(())
    for w, c in x.terms.items():
        l = len(w)
        if l == 0:
            v = p.A0
        elif l == 1:
            v = p.A1
        else:
            v = p.alpha(l // 2)
        out = out + c * v
    return out


@dataclass(frozen=True)
class TraceParamsTL3:
    """Values on the short words plus one parameter sequence per
    rotation-orbit family of long words; ``beta_rev=None`` collapses the
    second family onto the first."""

    B0: Scalar
    B1: Scalar
    B2: Scalar
    beta: Callable[[int], Scalar]
    beta_rev: Callable[[int], Scalar] | None = None

    def rev(self, k: int) -> Scalar:
        return (self.beta_rev or self.beta)(k)


_FWD_BASE = (0, 1, 2)  # s1 s2 a
_REV_BASE = (1, 0, 2)  # s2 s1 a
_FWD_PREFIX = ((), (0,), (0, 1))
_REV_PREFIX = ((), (1,), (1, 0))


@lru_cache(maxsize=None)
def _orbit_index(length: int) -> dict:
    """Canonical letters -> (family, k, rem) for rank-3 words of one length.

    Every basis word of length 3k+rem (k >= 1) is a rotation of the length-
    matching power-plus-prefix word of exactly one of the two families.
    """
    g = affine(3)
    k, rem = divmod(length, 3)
    table: dict = {}
    for family, base, prefixes in (
        ("fwd", _FWD_BASE, _FWD_PREFIX),
        ("rev", _REV_BASE, _REV_PREFIX),
    ):
        raw = base * k + prefixes[rem]
        for d in range(3):
            table[rotate(g, raw, d)] = (family, k, rem)
    return table


def classify_orbit3(g: CoxeterGraph, w: tuple) -> tuple[str, int, int]:
    """Which rotation-orbit family a rank-3 basis word of length >= 3 is in,
    together with (k, rem) where the length is 3k + rem."""
    if g != affine(3) or len(w) < 3:
        raise RankMismatch("classification needs a rank-3 word of length >= 3")
    hit = _orbit_index(len(w)).get(w)
    if hit is None:
        raise NotClassifiable(f"word {word_text(g, w)} fits neither rotation-orbit family")
    return hit


def _slots3(x: TLElement) -> dict:
    """x's coefficient on each slot of the rank-3 value table: the lengths
    0, 1 and 2, and (family, k) for the long words, whose remainder-2 words
    carry a DELTA factor."""
    out: dict = {}
    for w, c in x.terms.items():
        slot = len(w)
        if slot > 2:
            family, k, rem = classify_orbit3(x.graph, w)
            slot = (family, k)
            if rem == 2:
                c = DELTA * c
        acc = out.get(slot)
        out[slot] = c if acc is None else acc + c
    return out


def generic_trace3(p: TraceParamsTL3, x: TLElement) -> Scalar:
    """Evaluate the rank-3 functional from its value table."""
    if x.graph != affine(3):
        raise RankMismatch("generic_trace3 lives on the rank-3 affine algebra")
    short = (p.B0, p.B1, p.B2)
    out = Scalar(())
    for slot, c in _slots3(x).items():
        if isinstance(slot, int):
            v = short[slot]
        else:
            family, k = slot
            v = p.beta(k) if family == "fwd" else p.rev(k)
        out = out + c * v
    return out


# ---------------------------------------------------------------------------
# the rank-3 product machinery and the parameter solver


def build_xz(i: int) -> tuple[TLElement, TLElement]:
    """The pair (x_i, z_i) of rank-3 elements whose powers of index 1 span
    the image of the rank-2 algebra under the tower step.

    x_1 is the tower image of the product of the two rank-2 generators;
    z_i is the image of x_i under chi (word reversal with q -> 1/q).
    """
    if 3 * i + 2 > DEFAULT_MAX_LEN:
        raise LengthLimitExceeded(f"index {i} needs words longer than the cap {DEFAULT_MAX_LEN}")
    g = affine(3)
    ratio = (ONE + Q) / Q
    plain = ONE + Q
    sgn_i = ONE if i % 2 == 0 else -ONE
    sgn_prev = -sgn_i
    a_word, b_word = (0, 2, 1), (0, 1, 2)
    x = (
        TLElement.monomial(g, a_word * i, sgn_i * ratio ** i)
        + TLElement.monomial(g, b_word * i, sgn_i * plain ** i)
        + TLElement.monomial(g, a_word * (i - 1) + (0, 2), sgn_prev * ratio ** (i - 1))
        + TLElement.monomial(g, b_word * (i - 1) + (0, 1), sgn_prev * plain ** (i - 1))
    )
    ar_word, br_word = (2, 1, 0), (1, 2, 0)
    z = (
        TLElement.monomial(g, ar_word * i, sgn_i * ratio ** i)
        + TLElement.monomial(g, br_word * i, sgn_i * plain ** i)
        + TLElement.monomial(g, (1, 0) + ar_word * (i - 1), sgn_prev * ratio ** (i - 1))
        + TLElement.monomial(g, (2, 0) + br_word * (i - 1), sgn_prev * plain ** (i - 1))
    )
    return x, z


def _solve_slot(elem: TLElement, rhs: Scalar, target: tuple, B, known: dict) -> Scalar:
    """Solve  sum_w c_w * slot(w) = rhs  for the single unknown slot."""
    slots = _slots3(elem)
    unknown_coeff = slots.pop(target, Scalar(()))
    if unknown_coeff.is_zero():
        raise SingularSystem(f"slot {target} does not occur in the expansion")
    acc = Scalar(())
    for slot, c in slots.items():
        acc = acc + c * (B[slot] if isinstance(slot, int) else known[slot])
    return (rhs - acc) / unknown_coeff


def solve_alpha_beta(kmax: int):
    """Solve for the trace values on the long basis words at ranks 2 and 3.

    Returns ``(alphas, betas, beta_revs)``, each a list of length kmax:
    alphas[k-1] is the rank-2 trace of the alternating word of length 2k,
    betas[k-1] / beta_revs[k-1] are the rank-3 trace values of the two
    orbit families at length 3k.  The betas come from linear slot equations
    driven by the products x_1^k f_{s2} and f_{s2} z_1^k.  The ``verify``
    battery ``check_solver`` compares every solved value with the direct
    rho evaluation of the matching basis word.
    """
    g2, g3 = affine(2), affine(3)
    alphas = [
        rho(TLElement.monomial(g2, (0, 1) * k, ONE)) for k in range(1, kmax + 1)
    ]
    B = [
        rho(TLElement.one(g3)),
        rho(TLElement.monomial(g3, (0,))),
        rho(TLElement.monomial(g3, (0, 1))),
    ]
    x1, z1 = build_xz(1)
    f2 = TLElement.monomial(g3, (1,))
    known: dict = {}
    betas, beta_revs = [], []
    x_side, z_side = f2, f2
    for k in range(1, kmax + 1):
        x_side = multiply(x1, x_side)
        z_side = multiply(z_side, z1)
        rhs = -(V / (ONE + Q)) * alphas[k - 1]
        known[("rev", k)] = _solve_slot(x_side, rhs, ("rev", k), B, known)
        known[("fwd", k)] = _solve_slot(z_side, rhs, ("fwd", k), B, known)
        betas.append(known[("fwd", k)])
        beta_revs.append(known[("rev", k)])
    return alphas, betas, beta_revs
