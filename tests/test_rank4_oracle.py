"""An independent oracle for the rank-4 affine trace.

The classical three-generator algebra is realized as a 14-dimensional table
algebra.  Words are normalized by brute-force commutation closures plus the
quadratic and triple-product relations, with no use of the engine's
rewriting, canonical forms, or basis conversion, so an agreement with the
engine's rho on rank-4 basis monomials checks the whole pipeline
(collapse images, monomial products, trace recursion) along a second route.
"""
from functools import lru_cache

from affinetl import ONE, Q, V, Scalar, TLElement, affine, enumerate_fc, rho

FREE = -(ONE + Q) / V  # free-strand factor

# path(3): 0-1 and 1-2 adjacent, 0-2 commuting


@lru_cache(maxsize=None)
def comm_closure(word):
    seen = {word}
    stack = [word]
    while stack:
        w = stack.pop()
        for i in range(len(w) - 1):
            a, b = w[i], w[i + 1]
            if abs(a - b) >= 2:
                u = w[:i] + (b, a) + w[i + 2:]
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
    return frozenset(seen)


@lru_cache(maxsize=None)
def reduce3(word):
    """Expansion of a g-word over three generators in the 14-element basis,
    keyed by the lexicographically least word of each commutation class."""
    for w in comm_closure(word):
        for i in range(len(w) - 1):
            if w[i] == w[i + 1]:
                out = {}
                for u, c in reduce3(w[:i + 1] + w[i + 2:]).items():
                    out[u] = out.get(u, Scalar(())) + c * (Q - ONE)
                for u, c in reduce3(w[:i] + w[i + 2:]).items():
                    out[u] = out.get(u, Scalar(())) + c * Q
                return {u: c for u, c in out.items() if not c.is_zero()}
        for i in range(len(w) - 2):
            s, t = w[i], w[i + 1]
            if w[i + 2] == s and abs(s - t) == 1:
                out = {}
                for repl in ((s, t), (t, s), (s,), (t,), ()):
                    for u, c in reduce3(w[:i] + repl + w[i + 3:]).items():
                        out[u] = out.get(u, Scalar(())) - c
                return {u: c for u, c in out.items() if not c.is_zero()}
    return {min(comm_closure(word)): ONE}


def mul3(x: dict, y: dict) -> dict:
    out: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for w, c in reduce3(u + v).items():
                out[w] = out.get(w, Scalar(())) + cu * cv * c
    return {w: c for w, c in out.items() if not c.is_zero()}


# rank-2 sub-table for the trace recursion's bottom level
_TAU3 = {
    (): (ONE + Q) ** 2 / Q,
    (0,): -(ONE + Q) / Q,
    (1,): -(ONE + Q) / Q,
    (0, 1): ONE / Q,
    (1, 0): ONE / Q,
}


@lru_cache(maxsize=None)
def tau4_word(word) -> Scalar:
    """Trace of a basis g-word of the three-generator algebra, splitting at
    the unique occurrence of the top generator."""
    occ = [i for i, s in enumerate(word) if s == 2]
    if not occ:
        return FREE * _TAU3[word]
    assert len(occ) == 1
    i = occ[0]
    value = Scalar(())
    from test_traces import reduce_g_word_2gen, table_mul

    for u, c in table_mul(
        reduce_g_word_2gen(word[:i]), reduce_g_word_2gen(word[i + 1:])
    ).items():
        value = value + c * _TAU3[u]
    return value / V


def tau4(x: dict) -> Scalar:
    out = Scalar(())
    for w, c in x.items():
        out = out + c * tau4_word(w)
    return out


def g_inv_combo(s: int) -> dict:
    return {(s,): ONE / Q, (): (ONE - Q) / Q}


@lru_cache(maxsize=None)
def letter_image4(s: int) -> dict:
    """Collapse image of the rank-4 affine idempotent generator s."""
    inv_qp1 = (ONE + Q).inv()
    if s < 3:
        return {(s,): inv_qp1, (): inv_qp1}
    # wrap generator: (g0 g1 g2 g1^{-1} g0^{-1} + 1) / (q+1)
    img = {(0, 1, 2): ONE}
    img = mul3(img, g_inv_combo(1))
    img = mul3(img, g_inv_combo(0))
    img[()] = img.get((), Scalar(())) + ONE
    return {w: inv_qp1 * c for w, c in img.items() if not (inv_qp1 * c).is_zero()}


def rho4_oracle(letters) -> Scalar:
    acc = {(): ONE}
    for s in letters:
        acc = mul3(acc, letter_image4(s))
    return tau4(acc)


def test_table_basis_is_14_dimensional():
    import itertools

    keys = set()
    for length in range(0, 7):
        for word in itertools.product(range(3), repeat=length):
            keys.update(reduce3(word))
    assert len(keys) == 14


def test_rho_rank4_matches_independent_oracle():
    g4 = affine(4)
    words = [w for w in enumerate_fc(g4, 6)]
    assert len(words) == 83
    for w in words:
        engine = rho(TLElement(g4, {w: ONE}))
        assert engine == rho4_oracle(w), str(w)
