"""An oracle for the link invariant that shares no code with the algebra:
the Kauffman bracket state sum of the closure of the collapsed braid.

The collapse E sends the wrap letter a^e of an affine braid on m generators
to s1 ... s(m-2) s(m-1)^e s(m-2)^-1 ... s1^-1, so the invariant of an affine
braid is the Jones polynomial of a classical closed braid on m strands, with
t = q.  The bracket takes loop value d = -A^2 - A^-2; normalised by
(-A^3)^-writhe / d and read at A^2 = 1/v, it is that Jones polynomial.
"""
import random

import pytest

from affinetl import BraidWord, invariant
from affinetl.scalars import Laurent


def collapse(b: BraidWord) -> list:
    """The signed letters of the classical braid on ``b.gens`` strands."""
    m, out = b.gens, []
    for s, e in b.letters:
        if s < m - 1:
            out.append((s, e))
        else:
            out += [(i, 1) for i in range(m - 2)] + [(m - 2, e)]
            out += [(i, -1) for i in range(m - 3, -1, -1)]
    return out


def _loops(strands: int, word: list, state: int) -> int:
    """Loops of the closure smoothed by ``state``, a bit per crossing: 0 is
    the A-smoothing.  Point (k, i) is strand i above crossing k."""
    n = len(word)
    parent = list(range(strands * n))

    def find(p):
        while parent[p] != p:
            parent[p] = p = parent[parent[p]]
        return p

    def join(k, i, l, j):
        parent[find(k % n * strands + i)] = find(l % n * strands + j)

    for k, (i, e) in enumerate(word):
        for j in set(range(strands)) - {i, i + 1}:
            join(k, j, k + 1, j)
        if (state >> k & 1) == (e == 1):  # cap above and cup below
            join(k, i, k, i + 1)
            join(k + 1, i, k + 1, i + 1)
        else:  # the strands pass straight down
            join(k, i, k + 1, i)
            join(k, i + 1, k + 1, i + 1)
    return sum(find(p) == p for p in range(strands * n))


def bracket_jones(b: BraidWord) -> Laurent:
    """(-A^3)^-writhe <closure> / d, at A^2 = 1/v."""
    word, strands = collapse(b), b.gens
    n, writhe = len(word), sum(e for _, e in word)
    total: dict = {}  # A exponent -> coefficient
    for state in range(2 ** n):
        poly = {n - 2 * bin(state).count("1") - 3 * writhe: (-1) ** abs(writhe)}
        for _ in range(_loops(strands, word, state) - 1 if n else strands - 1):
            d_poly: dict = {}  # poly times d = -A^2 - A^-2
            for x, c in poly.items():
                for y in (x + 2, x - 2):
                    d_poly[y] = d_poly.get(y, 0) - c
            poly = d_poly
        for x, c in poly.items():
            total[x] = total.get(x, 0) + c
    assert all(x % 2 == 0 for x in total)
    v_poly = {-x // 2: c for x, c in total.items() if c}
    lo = min(v_poly)
    return Laurent(lo, [v_poly.get(lo + i, 0) for i in range(max(v_poly) - lo + 1)])


def seeded_braid(m: int, rng: random.Random, crossings: int) -> BraidWord:
    """A braid on m generators whose collapse has at most ``crossings``."""
    letters, size = [], 0
    while True:
        s = rng.randrange(m)
        size += 1 if s < m - 1 else 2 * m - 3
        if size > crossings:
            return BraidWord(m, tuple(letters))
        letters.append((s, rng.choice((1, -1))))


def test_bracket_matches_known_links():
    assert collapse(BraidWord(4, ((3, -1),))) == [(0, 1), (1, 1), (2, -1), (1, -1), (0, -1)]
    trefoil = BraidWord(2, ((0, 1),) * 3)
    assert bracket_jones(trefoil).to_scalar() == invariant(trefoil)
    assert str(bracket_jones(trefoil).to_scalar()) == "-v^8+v^6+v^2"


@pytest.mark.parametrize("m", [2, 3, 4, 5, 6, 7])
def test_invariant_matches_bracket_oracle(m):
    rng = random.Random(f"bracket/{m}")
    for _ in range(45):
        b = seeded_braid(m, rng, rng.randint(0, 12))
        assert invariant(b) == bracket_jones(b).to_scalar(), b


def cycles(b: BraidWord) -> int:
    """The components of the closure: the cycles of the permutation of the
    collapsed braid."""
    perm = list(range(b.gens))
    for s, _ in collapse(b):
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    seen, count = set(), 0
    for start in range(b.gens):
        count += start not in seen
        while start not in seen:
            seen.add(start)
            start = perm[start]
    return count


def test_long_braid_is_not_capped():
    """72 letters at rank 3: no basis word of the collapsed braid on 3
    strands has more than 2 letters, so no word-length cap applies."""
    b = BraidWord(3, ((0, 1), (1, 1), (2, 1)) * 24)
    assert invariant(b).eval_at(1) == (-2) ** (cycles(b) - 1)
