"""The Q(v) f-basis route, kept as an oracle for the integral e-basis kernel.

The invertible generators g, g^-1, T and T^-1 are written here a second
time, over ``Scalar`` in the f-basis.  Braid images are products of the
T-generators; tower images multiply the f-generator images
(g-image + 1) / (1+q) along each word; the classical trace is the
rank-splitting recursion on f-monomials with the ``Scalar`` split and
free-strand factors.  It shares word rewriting and the element product with
the library, but none of its Laurent arithmetic or e-basis code, and never
reads the library's generator table.

A second classical trace runs through the g-basis: it splits a g-monomial
at the top generator, multiplies the flanks back together and expands the
product in the g-basis one rank down.
"""
from functools import lru_cache

from affinetl import (
    ONE,
    Q,
    V,
    Scalar,
    TLElement,
    affine,
    multiply,
    path,
)
from affinetl.algebra import reduce_letters
from affinetl.scalars import delta_pow

FREE_STRAND = -(ONE + Q) / V
SPLIT = -V / (ONE + Q)

# f-basis coefficients (of f_s, of 1) of the invertible generators
GENERATORS = {
    "g": (ONE + Q, -ONE),
    "g_inv": ((ONE + Q) / Q, -ONE),
    "T": (V * (ONE + Q), -V),
    "T_inv": ((ONE + Q) / (Q * V), -ONE / V),
}


def gen(style: str, s: int, graph) -> TLElement:
    mono, unit = GENERATORS[style]
    return TLElement(graph, {(s,): mono, (): unit})


@lru_cache(maxsize=None)
def g_word_element(graph, letters: tuple) -> TLElement:
    """The product of g-generators along the letters, in the f-basis."""
    if not letters:
        return TLElement.one(graph)
    return multiply(g_word_element(graph, letters[:-1]), gen("g", letters[-1], graph))


def to_g_basis(x: TLElement) -> dict:
    """Coordinates of x in the g-word basis, by triangular elimination from
    the longest f-words downward."""
    rem = dict(x.terms)
    out: dict = {}
    while rem:
        w = max(rem, key=lambda u: (len(u), u))
        lead = rem[w] / (ONE + Q) ** len(w)
        out[w] = lead
        for u, cu in g_word_element(x.graph, w).terms.items():
            c = rem.get(u, Scalar(())) - lead * cu
            if c.is_zero():
                rem.pop(u, None)
            else:
                rem[u] = c
    return out


@lru_cache(maxsize=None)
def f_gen_images(kind: str, m: int) -> tuple:
    """Target graph and f-generator images of the rank-m affine algebra."""
    if kind == "F":
        tgt = affine(m + 1)
        conj = multiply(gen("g", m - 1, tgt), gen("g", m, tgt))
        wrap = multiply(conj, gen("g_inv", m - 1, tgt))
    else:
        tgt = path(m - 1)
        wrap = gen("g", m - 2, tgt)
        for i in range(m - 3, -1, -1):
            wrap = multiply(multiply(gen("g", i, tgt), wrap), gen("g_inv", i, tgt))
    images = [gen("g", i, tgt) for i in range(m - 1)] + [wrap]
    one = TLElement.one(tgt)
    return tgt, tuple((img + one).scale((ONE + Q).inv()) for img in images)


@lru_cache(maxsize=None)
def f_image(kind: str, m: int, letters: tuple) -> TLElement:
    tgt, images = f_gen_images(kind, m)
    if not letters:
        return TLElement.one(tgt)
    return multiply(f_image(kind, m, letters[:-1]), images[letters[-1]])


def apply_map(kind: str, x: TLElement) -> TLElement:
    m = x.graph.gens
    out = TLElement.zero(f_gen_images(kind, m)[0])
    for w, c in x.terms.items():
        out = out + f_image(kind, m, w).scale(c)
    return out


def braid_image(b) -> TLElement:
    g = b.graph
    out = TLElement.one(g)
    for s, e in b.letters:
        out = multiply(out, gen("T" if e == 1 else "T_inv", s, g))
    return out


@lru_cache(maxsize=None)
def trace_f_word(n: int, letters: tuple) -> Scalar:
    if n == 0:
        return ONE
    at = [i for i, s in enumerate(letters) if s == n - 1]
    if not at:
        return FREE_STRAND * trace_f_word(n - 1, letters)
    i = at[0]
    g = path(n - 1)
    loops, word = reduce_letters(g, letters[:i] + letters[i + 1:])
    return SPLIT * delta_pow(loops) * trace_f_word(n - 1, word)


def jones_trace(x: TLElement) -> Scalar:
    out = Scalar(())
    for w, c in x.terms.items():
        out = out + c * trace_f_word(x.graph.gens, w)
    return out


def invariant(b) -> Scalar:
    return jones_trace(apply_map("E", braid_image(b)))


def trace_g_word(n: int, letters: tuple) -> Scalar:
    if n == 0:
        return ONE
    at = [i for i, s in enumerate(letters) if s == n - 1]
    if not at:
        return FREE_STRAND * trace_g_word(n - 1, letters)
    i = at[0]
    g = path(n - 1)
    product = multiply(g_word_element(g, letters[:i]), g_word_element(g, letters[i + 1:]))
    out = Scalar(())
    for w, c in to_g_basis(product).items():
        out = out + c * trace_g_word(n - 1, w)
    return out / V


def jones_trace_g_route(x: TLElement) -> Scalar:
    out = Scalar(())
    for w, c in to_g_basis(x).items():
        out = out + c * trace_g_word(x.graph.gens, w)
    return out
