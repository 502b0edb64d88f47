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
defining value tables.  The rank-3 table carries one sequence per
rotation-orbit family of long basis words, because the affine trace provably
assigns the two families different values (see :func:`solve_alpha_beta`); a
functional that does not tell them apart passes the same sequence twice.
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import TLElement, e_multiply, e_to_element, e_word
from .coxeter import DEFAULT_MAX_LEN, CoxeterGraph, affine, fc_word, path
from .errors import LengthLimitExceeded, NotFcWord, RankMismatch, SingularSystem
from .morphisms import BraidWord, _f_image, braid_collapse
from .scalars import DELTA, L_ONE, L_ZERO, ONE, Laurent, Scalar, qp1_laurent_pow

# trace value gained by a strand the word never touches: -(1+q)/sqrt(q)
FREE_STRAND_FACTOR = Laurent(-1, (-1, 0, -1)).to_scalar()


def _trace_sum(x: TLElement, value) -> Scalar:
    """The sum of c value(w) / (1+q)^|w| over the terms c f_w of x, where
    value(w) is the Laurent trace of the integral monomial e_w."""
    out = Scalar(())
    for w, c in x.terms.items():
        out = out + c * value(w).over_qp1_pow(len(w))
    return out


def jones_trace(x: TLElement) -> Scalar:
    """The classical Markov trace of an element over a path graph."""
    if x.graph.is_affine:
        raise RankMismatch("jones_trace expects a classical-algebra element")
    return _trace_sum(x, lambda w: _trace_f_word(x.graph.gens, w))


@lru_cache(maxsize=None)
def _trace_f_word(n: int, letters: tuple[int, ...]) -> Laurent:
    """Trace of the integral monomial e_w = (1+q)^|w| f_w over path(n), for
    any letter sequence w.

    With e_s = v U_s, the diagram U_w on n+1 strands has trace
    (-1)^n (v + 1/v)^(L-1), where L counts the loops of its closure
    (Kauffman, Topology 26, 1987).  The loops are the classes of a
    union-find over the n+1 top ends and one cup per letter: the letter s
    caps the two ends that reach its strands s and s+1, and its cup becomes
    their new end; the closure joins each bottom end to its top end.
    """
    parent = list(range(n + 1 + len(letters)))

    def find(a: int) -> int:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        return a

    end = list(range(n + 1))
    for cup, s in enumerate(letters, n + 1):
        parent[find(end[s])] = find(end[s + 1])
        end[s] = end[s + 1] = cup
    for top, bottom in enumerate(end):
        parent[find(bottom)] = find(top)
    loops = sum(a == p for a, p in enumerate(parent))
    out = qp1_laurent_pow(loops - 1).shift(len(letters) + 1 - loops)
    return -out if n % 2 else out


def _e_trace(n: int, x: dict) -> Laurent:
    """The Jones trace of an e-element over path(n), in Z[v, 1/v]."""
    return sum((c * _trace_f_word(n, w) for w, c in x.items()), L_ZERO)


@lru_cache(maxsize=None)
def _rho_word(m: int, letters: tuple[int, ...]) -> Laurent:
    """rho of the integral monomial e_w: the trace of its E image."""
    return _e_trace(m - 1, _f_image("E", m, letters))


def rho(x: TLElement) -> Scalar:
    """The affine Markov trace: collapse with E_map, then jones_trace.

    >>> from affinetl.scalars import Q
    >>> rho(TLElement.one(affine(3))) == (ONE + Q) ** 2 / Q
    True
    >>> rho(TLElement.monomial(affine(3), (0,))) == ONE
    True
    """
    if not x.graph.is_affine:
        raise RankMismatch("rho expects an affine-algebra element")
    return _trace_sum(x, lambda w: _rho_word(x.graph.gens, w))


def invariant(b: BraidWord) -> Scalar:
    """The link invariant of the closure of an affine braid word.

    No writhe correction is applied: the trace satisfies both stabilization
    signs on the nose, so the raw composite is already invariant and the
    unknot receives value 1.  E is an algebra map, so rho of the braid image
    is the Jones trace of the T-image of the classical braid
    ``braid_collapse(b)``, summed over Z[v, 1/v] in the e-basis, where the
    (1+q)^|w| factors of the image and of the trace cancel.

    >>> from .morphisms import parse_braid
    >>> print(invariant(parse_braid("s1 s1 s1", 2)))
    -v^8+v^6+v^2
    """
    n = b.gens - 1
    return _e_trace(n, e_word(path(n), "T", braid_collapse(b))).to_scalar()


# ---------------------------------------------------------------------------
# generic rotation-invariant traces at ranks 2 and 3


# values on 1, on a single generator, and alpha(k) on the alternating words of length 2k
TraceParamsTL2 = namedtuple("TraceParamsTL2", "A0 A1 alpha")


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


# values on the words of length 0, 1 and 2, and a sequence in k per orbit family of long words
TraceParamsTL3 = namedtuple("TraceParamsTL3", "B0 B1 B2 beta beta_rev")


_FWD_BASE = (0, 1, 2)  # s1 s2 a
_REV_BASE = (1, 0, 2)  # s2 s1 a


def classify_orbit3(g: CoxeterGraph, w: tuple) -> tuple[str, int, int]:
    """Which rotation-orbit family a rank-3 basis word of length >= 3 is in,
    together with (k, rem) where the length is 3k + rem.

    No two letters of affine(3) commute, so a basis word (its own
    Cartier-Foata form) has no ``s s`` and no ``s t s``: any three letters in
    a row are a, a+d, a+2d in Z/3, and two such windows share their step d.
    So the word steps by one d throughout: +1 for powers of s1 s2 a ("fwd"),
    -1 for those of s2 s1 a ("rev"); any other word is not a basis word.

    >>> classify_orbit3(affine(3), (2, 1, 0, 2, 1))
    ('rev', 1, 2)
    """
    if g != affine(3) or len(w) < 3:
        raise RankMismatch("classification needs a rank-3 word of length >= 3")
    if set(w[:3]) != {0, 1, 2} or w[3:] != w[:-3]:
        raise NotFcWord(f"word {w} is not a basis word of {g}")
    return ("fwd" if (w[1] - w[0]) % 3 == 1 else "rev", *divmod(len(w), 3))


# a long word of length 3k + r takes its slot's value times remainder[r]: DELTA at r = 2
# in the f-basis, and that times (1+q)^r in the e-basis, whose slot value is (1+q)^(3k) beta_k
_F_REMAINDER = (ONE, ONE, DELTA)
_E_REMAINDER = (L_ONE, qp1_laurent_pow(1), Laurent(2, (1,)))


def _slots3(terms: dict, remainder: tuple) -> dict:
    """The coefficient of each slot of the rank-3 value table in a term dict
    over affine(3), in the basis of ``remainder``: the lengths 0, 1 and 2,
    and (family, k) for the long words."""
    out: dict = {}
    for w, c in terms.items():
        slot = len(w)
        if slot > 2:
            family, k, rem = classify_orbit3(affine(3), w)
            slot, c = (family, k), c * remainder[rem]
        acc = out.get(slot)
        out[slot] = c if acc is None else acc + c
    return out


def generic_trace3(p: TraceParamsTL3, x: TLElement) -> Scalar:
    """Evaluate the rank-3 functional from its value table."""
    if x.graph != affine(3):
        raise RankMismatch("generic_trace3 lives on the rank-3 affine algebra")
    short = (p.B0, p.B1, p.B2)
    out = Scalar(())
    for slot, c in _slots3(x.terms, _F_REMAINDER).items():
        if isinstance(slot, int):
            v = short[slot]
        else:
            family, k = slot
            v = p.beta(k) if family == "fwd" else p.beta_rev(k)
        out = out + c * v
    return out


# ---------------------------------------------------------------------------
# the rank-3 product machinery and the parameter solver

# the largest kmax of solve_alpha_beta: x_1^k f_{s2} has words of length 3k+1
SOLVER_KMAX = (DEFAULT_MAX_LEN - 1) // 3


def _xz_e(i: int) -> tuple[dict, dict]:
    """(1+q)^(2i) x_i and (1+q)^(2i) z_i as e-elements, the one definition of
    the pair: with a = s1 a s2, b = s1 s2 a and sgn = (-1)^i,
      (1+q)^(2i) x_i = sgn (q^-i e_(a^i) + e_(b^i))
                       - sgn (q^(1-i) e_(a^(i-1) s1 a) + e_(b^(i-1) s1 s2)),
    and z_i has the same coefficients on the mirrored words."""
    sgn = -1 if i % 2 else 1
    coeffs = (Laurent(-2 * i, (sgn,)), Laurent(0, (sgn,)),
              Laurent(2 - 2 * i, (-sgn,)), Laurent(0, (-sgn,)))
    words = (
        ((0, 2, 1) * i, (0, 1, 2) * i, (0, 2, 1) * (i - 1) + (0, 2), (0, 1, 2) * (i - 1) + (0, 1)),
        ((2, 1, 0) * i, (1, 2, 0) * i, (1, 0) + (2, 1, 0) * (i - 1), (2, 0) + (1, 2, 0) * (i - 1)),
    )
    return tuple({fc_word(affine(3), w): c for w, c in zip(ws, coeffs)} for ws in words)


def build_xz(i: int) -> tuple[TLElement, TLElement]:
    """The pair (x_i, z_i) of rank-3 elements whose powers of index 1 span
    the image of the rank-2 algebra under the tower step, for i >= 1.

    x_1 is the tower image of the product of the two rank-2 generators;
    z_i is the image of x_i under chi (word reversal with q -> 1/q).  Its
    words have 3i letters, so i > 21 raises ``LengthLimitExceeded``.
    """
    if i < 1:
        raise ValueError(f"x_i and z_i need i >= 1, not {i}")
    return tuple(e_to_element(affine(3), e).scale(L_ONE.over_qp1_pow(2 * i)) for e in _xz_e(i))


def _check_kmax(kmax: int) -> None:
    """The range of solve_alpha_beta, checked before any product."""
    if kmax < 1:
        raise ValueError(f"kmax must be at least 1, not {kmax}")
    if kmax > SOLVER_KMAX:
        raise LengthLimitExceeded(f"kmax {kmax} exceeds {SOLVER_KMAX}, the largest whose "
                                  f"words fit the cap {DEFAULT_MAX_LEN}")


def _solve_slot(terms: dict, rhs: Laurent, target: tuple, known: dict) -> Laurent:
    """Solve  sum_w d_w rho(e_w) = rhs  over Z[v, 1/v] for the one unknown
    slot, the others taking their values from ``known``."""
    slots = _slots3(terms, _E_REMAINDER)
    pivot = slots.pop(target, L_ZERO)
    if not pivot:
        raise SingularSystem(f"slot {target} does not occur in the expansion")
    return (rhs - sum((c * known[s] for s, c in slots.items()), L_ZERO)).div_exact(pivot)


def solve_alpha_beta(kmax: int):
    """Solve for the trace values on the long basis words at ranks 2 and 3,
    for 1 <= kmax <= SOLVER_KMAX.

    Returns ``(alphas, betas, beta_revs)``, each a list of length kmax:
    alphas[k-1] is the rank-2 trace of the alternating word of length 2k,
    betas[k-1] / beta_revs[k-1] are the rank-3 trace values of the two
    orbit families at length 3k.  The betas solve the slot equations of
    x_1^k f_{s2} and f_{s2} z_1^k over Z[v, 1/v] in the e-basis: times
    (1+q)^(2k+1), the first reads  sum_w d_w rho(e_w) = -v rho(e_((s1 a)^k))
    for ((1+q)^2 x_1)^k e_{s2} = sum_w d_w e_w, with an exact quotient as its
    unknown.  Each value becomes a Scalar once, at the end.
    """
    _check_kmax(kmax)
    known: dict = {len(w): _rho_word(3, w) for w in ((), (0,), (0, 1))}
    x1, z1 = _xz_e(1)
    alphas, betas, beta_revs = [], [], []
    x_side = z_side = {(1,): L_ONE}
    for k in range(1, kmax + 1):
        x_side = e_multiply(affine(3), x1, x_side)
        z_side = e_multiply(affine(3), z_side, z1)
        alpha = _rho_word(2, (0, 1) * k)
        known["rev", k] = _solve_slot(x_side, -alpha.shift(1), ("rev", k), known)
        known["fwd", k] = _solve_slot(z_side, -alpha.shift(1), ("fwd", k), known)
        alphas.append(alpha.over_qp1_pow(2 * k))
        betas.append(known["fwd", k].over_qp1_pow(3 * k))
        beta_revs.append(known["rev", k].over_qp1_pow(3 * k))
    return alphas, betas, beta_revs
