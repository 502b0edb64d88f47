"""
Maps between the algebras in the tower, and braid words.

- ``F_map``  : affine rank m  -> affine rank m+1   (tower step)
- ``E_map``  : affine rank m  -> classical rank m-1 (collapse of the wrap
               generator onto a conjugated top generator)
- ``include``: classical rank n -> affine rank n+1  (letters unchanged)

Each map is defined on the invertible g-generators.  A basis monomial
f_w = e_w / (1+q)^|w| is a product of integral generators e_s = g_s + 1, so
its image is the product of the cached e-generator images, computed over
Z[v, 1/v] and converted to Q(v) only when an f-basis element is returned;
extending linearly is automatic.  Braid words map into the algebras through
the T-generator system T = v (e - 1), also over Z[v, 1/v].
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .algebra import TLElement, e_multiply, e_to_element, e_word
from .coxeter import CoxeterGraph, _refuse_sequence_op, affine, path
from .errors import InvalidGenerator, ParseError, RankMismatch
from .scalars import L_ONE, L_ZERO, qp1_laurent_pow


class BraidWord(namedtuple("BraidWord", "gens letters")):
    """A word in the affine braid group on ``gens`` generators: letters are
    (index, sign) pairs, sign +1 or -1.  A named tuple, with the tuple's
    equality and hashing; ``*`` concatenates two braid words, and the tuple
    ``+`` and ``*`` by anything else raise ``TypeError``."""

    __slots__ = ()
    __add__ = __radd__ = __rmul__ = _refuse_sequence_op

    def __new__(cls, gens: int, letters: tuple):
        if gens < 2:
            raise RankMismatch("braid words need at least 2 generators")
        g = affine(gens)
        for s, e in letters:
            g.check_letter(s)
            if e not in (-1, 1):
                raise InvalidGenerator(f"braid exponent {e} must be +-1")
        return super().__new__(cls, gens, letters)

    @property
    def graph(self) -> CoxeterGraph:
        return affine(self.gens)

    def inverse(self) -> "BraidWord":
        return BraidWord(self.gens, tuple((s, -e) for s, e in reversed(self.letters)))

    def __mul__(self, other: "BraidWord") -> "BraidWord":
        if not isinstance(other, BraidWord):
            _refuse_sequence_op(self, other)
        if self.gens != other.gens:
            raise RankMismatch("braid words over different groups")
        return BraidWord(self.gens, self.letters + other.letters)

    def __str__(self):
        g = self.graph
        return " ".join(
            g.letter_name(s) + ("" if e == 1 else "^-1") for s, e in self.letters
        )


def parse_braid(text: str, gens: int) -> BraidWord:
    """Whitespace-separated letters ``s<k>`` / ``a``, inverted by a trailing
    ``^-1`` or ``'``."""
    g = affine(gens)
    letters = []
    for tok in text.split():
        e = 1
        if tok.endswith("^-1"):
            tok, e = tok[:-3], -1
        elif tok.endswith("'"):
            tok, e = tok[:-1], -1
        try:
            s = g.parse_letter(tok)
        except InvalidGenerator as exc:
            raise ParseError(str(exc)) from exc
        letters.append((s, e))
    return BraidWord(gens, tuple(letters))


def braid_image(b: BraidWord) -> TLElement:
    """Image of a braid word in the affine algebra through T-generators."""
    return e_to_element(b.graph, e_word(b.graph, "T", b.letters))


def _conjugate_wrap(b: BraidWord, prefix: list, core: int) -> tuple:
    """The letters of ``b``, each wrap letter a^e replaced by the conjugate
    prefix s_core^e prefix^-1; plain letters are kept."""
    inverse = [(s, -e) for s, e in reversed(prefix)]
    return tuple(x for s, e in b.letters
                 for x in (prefix + [(core, e)] + inverse if s == b.gens - 1 else [(s, e)]))


def braid_lift(b: BraidWord) -> BraidWord:
    """One tower step at the braid level: a^e becomes s_m a^e s_m^-1."""
    return BraidWord(b.gens + 1, _conjugate_wrap(b, [(b.gens - 1, 1)], b.gens))


def braid_collapse(b: BraidWord) -> tuple:
    """E at the braid level, the signed letters of a classical braid on
    ``b.gens`` strands: a^e becomes s1 ... s(m-2) s(m-1)^e s(m-2)^-1 ... s1^-1."""
    return _conjugate_wrap(b, [(i, 1) for i in range(b.gens - 2)], b.gens - 2)


# ---------------------------------------------------------------------------
# algebra maps


@lru_cache(maxsize=None)
def _gen_images(kind: str, m: int) -> tuple:
    """Images of the e-generators of the rank-m affine algebra under F or E,
    as e-elements: plain letters map to themselves, and the wrap letter to
    1 plus the g-image of its braid-level image, a conjugate of one
    generator, the letters that ``braid_lift`` or ``braid_collapse``
    substitutes."""
    a = BraidWord(m, ((m - 1, 1),))
    if kind == "F":
        tgt, letters = affine(m + 1), braid_lift(a).letters
    elif kind == "E":
        tgt, letters = path(m - 1), braid_collapse(a)
    else:
        raise ValueError(kind)
    wrap = e_word(tgt, "g", letters)
    wrap = {**wrap, (): wrap.get((), L_ZERO) + L_ONE}
    images = [{(s,): L_ONE} for s in range(m - 1)]
    images.append({w: c for w, c in wrap.items() if c})
    return tgt, tuple(images)


@lru_cache(maxsize=None)
def _f_image(kind: str, m: int, letters: tuple[int, ...]) -> dict:
    """Image of the basis monomial f_w, kept as the e-element image of
    e_w = (1+q)^|w| f_w, whose coefficients are Laurent: a homomorphism
    sends the product of e-generators along the word to the product of
    their images."""
    tgt, images = _gen_images(kind, m)
    if not letters:
        return {(): L_ONE}
    return e_multiply(tgt, _f_image(kind, m, letters[:-1]), images[letters[-1]])


def _apply_map(kind: str, x: TLElement) -> TLElement:
    if not x.graph.is_affine:
        raise RankMismatch(f"{kind}_map expects an affine-algebra element")
    m = x.graph.gens
    tgt, _ = _gen_images(kind, m)
    out: dict = {}
    for w, c in x.terms.items():
        for u, d in _f_image(kind, m, w).items():
            # the f_u coefficient of the image of f_w is d (1+q)^(|u| - |w|)
            t = c * (d * qp1_laurent_pow(len(u))).over_qp1_pow(len(w))
            acc = out.get(u)
            out[u] = t if acc is None else acc + t
    return TLElement._canonical(tgt, out)


def F_map(x: TLElement) -> TLElement:
    """Tower step: affine rank m -> affine rank m+1."""
    return _apply_map("F", x)


def E_map(x: TLElement) -> TLElement:
    """Collapse onto the classical algebra one rank down; a surjection, and
    the identity on the included classical subalgebra."""
    return _apply_map("E", x)


def include(x: TLElement) -> TLElement:
    """The classical algebra on n generators inside the affine one on n+1;
    basis words are unchanged."""
    if x.graph.is_affine:
        raise RankMismatch("include expects a classical-algebra element")
    return TLElement._canonical(affine(x.graph.gens + 1), x.terms)


def widen(x: TLElement, n: int) -> TLElement:
    """Classical inclusion path(m) -> path(n) for n >= m, letters unchanged."""
    if x.graph.is_affine or n < x.graph.gens:
        raise RankMismatch("widen expects a classical element and a larger rank")
    return TLElement._canonical(path(n), x.terms)
