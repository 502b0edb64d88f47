"""
Dynkin graphs of affine-cycle and type-A-path kind, and the combinatorics of
fully commutative (FC) words over them.

Generators are integer indices.  On a path with m generators the indices
0..m-1 stand for s1..sm; on an affine cycle with m generators the indices
0..m-2 stand for s1..s(m-1) and index m-1 is the wrap generator, written
``a`` in text form.  Every unordered pair of distinct generators falls into
exactly one of three classes:

- commuting:     s t = t s,
- tl-adjacent:   the pair carries the length-3 relation s t s = (loop) * s
                 at the algebra level,
- free:          neither (only the affine cycle on 2 generators has these).

A basis word is the canonical representative of the commutation class of a
reduced word of an FC element, as a tuple of letters: its Cartier-Foata
normal form under the total order 0 < 1 < ... < m-1 (see :func:`fc_word`).
"""
from __future__ import annotations

from collections import namedtuple
from functools import lru_cache

from .errors import InvalidGenerator, LengthLimitExceeded, NotFcWord, RankMismatch

AFFINE = "affine-cycle"
PATH = "type-a-path"

# the longest basis word, held where words enter (fc_word, reduce_letters,
# enumerate_fc) and where they grow (word_product); nothing can raise it
DEFAULT_MAX_LEN = 64


def _check_len(n: int):
    if n > DEFAULT_MAX_LEN:
        raise LengthLimitExceeded(f"word of length {n} exceeds cap {DEFAULT_MAX_LEN}")


def _refuse_sequence_op(self, other):
    raise TypeError(f"a {type(self).__name__} is a record: it does not add or repeat")


class CoxeterGraph(namedtuple("CoxeterGraph", "kind gens")):
    """A graph kind and generator count.  A named tuple: equality and
    hashing are the tuple's, done in C, which keeps the ``_tables(g)``
    lookup of every word product fast (so a graph equals the plain tuple of
    its fields); the tuple ``+`` and ``*`` raise ``TypeError``."""

    __slots__ = ()
    __add__ = __radd__ = __mul__ = __rmul__ = _refuse_sequence_op

    def __new__(cls, kind: str, gens: int):
        if kind == AFFINE:
            if gens < 2:
                raise RankMismatch("affine cycle needs at least 2 generators")
        elif kind == PATH:
            if gens < 0:
                raise RankMismatch("negative generator count")
        else:
            raise RankMismatch(f"unknown graph kind {kind!r}")
        return super().__new__(cls, kind, gens)

    @property
    def is_affine(self) -> bool:
        return self.kind == AFFINE

    def check_letter(self, s: int):
        if not isinstance(s, int) or not 0 <= s < self.gens:
            raise InvalidGenerator(f"letter {s!r} out of range for {self}")

    def _check_pair(self, s: int, t: int):
        self.check_letter(s)
        self.check_letter(t)
        if s == t:
            raise InvalidGenerator(f"{s} and {t} are not two distinct generators")

    def commutes(self, s: int, t: int) -> bool:
        self._check_pair(s, t)
        return _tables(self)[0][s][t]

    def tl_adjacent(self, s: int, t: int) -> bool:
        """Whether the pair carries the length-3 relation; see :func:`_tables`."""
        self._check_pair(s, t)
        return _tables(self)[1][s][t]

    def letter_name(self, s: int) -> str:
        self.check_letter(s)
        if self.is_affine and s == self.gens - 1:
            return "a"
        return f"s{s + 1}"

    def parse_letter(self, text: str) -> int:
        if text == "a":
            if not self.is_affine:
                raise InvalidGenerator("letter 'a' only exists on affine graphs")
            return self.gens - 1
        if text.startswith("s") and text[1:].isdigit():
            k = int(text[1:])
            top = self.gens - 1 if self.is_affine else self.gens
            if 1 <= k <= top:
                return k - 1
        raise InvalidGenerator(f"bad generator letter {text!r} for {self}")

    def __str__(self):
        return f"{self.kind}({self.gens})"


def affine(m: int) -> CoxeterGraph:
    return CoxeterGraph(AFFINE, m)


def path(m: int) -> CoxeterGraph:
    return CoxeterGraph(PATH, m)


# ---------------------------------------------------------------------------
# redex scanning; shared with the algebra rewriting


@lru_cache(maxsize=None)
def _tables(g: CoxeterGraph):
    """The m x m commutation and tl-adjacency tables, the one definition of
    both relations: letters at distance 2 or more on the graph commute, and
    neighbours are tl-adjacent, except the free pair of the affine cycle on
    2 generators, on which only the quadratic relations hold."""
    m, r = g.gens, range(g.gens)
    dist = [[min((s - t) % m, (t - s) % m) if g.is_affine else abs(s - t) for t in r] for s in r]
    free = g.is_affine and m == 2
    return (tuple(tuple(d >= 2 for d in row) for row in dist),
            tuple(tuple(d == 1 and not free for d in row) for row in dist))


def _rightmost_redex(comm, adj, word):
    """The redex ``(j, t)`` of ``word`` with the largest j, or None.

    A redex is a pair of equal letters at i < j, with none of that letter
    between, such that every letter between commutes with it (a square,
    ``t`` None), or all but one do and that one, at t, is tl-adjacent to it
    (a sandwich).  ``comm`` and ``adj`` are the graph's :func:`_tables`.
    """
    # the walk left from j stops at the first letter that rules a redex out
    for j in range(len(word) - 1, 0, -1):
        s = word[j]
        cs, adj_s = comm[s], adj[s]
        t = None
        for p in range(j - 1, -1, -1):
            u = word[p]
            if u == s:
                return j, t
            if not cs[u]:
                if t is not None or not adj_s[u]:
                    break
                t = p
    return None


def fc_check(g: CoxeterGraph, word) -> bool:
    """True iff the word is redex-free, i.e. a reduced word of an FC element.

    >>> fc_check(path(3), [0, 1, 0])
    False
    >>> fc_check(path(3), [1, 0, 2, 1])
    True
    """
    for s in word:
        g.check_letter(s)
    return _rightmost_redex(*_tables(g), tuple(word)) is None


def fc_word(g: CoxeterGraph, letters) -> tuple[int, ...]:
    """The canonical (Cartier-Foata) letters of a redex-free word of at most
    ``DEFAULT_MAX_LEN`` letters.

    >>> fc_word(path(3), [2, 0, 1])
    (0, 2, 1)
    >>> word_text(path(3), (0, 2, 1))
    '[s1 s3 s2]'
    """
    letters = tuple(letters)
    _check_len(len(letters))
    if not fc_check(g, letters):
        raise NotFcWord(f"word {letters} has a redex on {g}")
    return _cartier_foata_letters(g, letters)


def word_text(g: CoxeterGraph, letters) -> str:
    """The text form of a word, such as ``[s1 a]``."""
    return "[" + " ".join(g.letter_name(s) for s in letters) + "]"


def _cartier_foata_letters(g: CoxeterGraph, letters) -> tuple[int, ...]:
    """Greedy block factorization: each letter goes into the earliest block
    all of whose later blocks commute with it; blocks are sorted internally."""
    comm = _tables(g)[0]
    blocks: list[list[int]] = []
    depth: dict = {}
    for s in letters:
        d = 0
        for t, dt in depth.items():
            if dt > d and not comm[s][t]:
                d = dt
        if d == len(blocks):
            blocks.append([])
        blocks[d].append(s)
        depth[s] = d + 1
    out = []
    for b in blocks:
        out.extend(sorted(b))
    return tuple(out)


def rotate(g: CoxeterGraph, w: tuple, d: int) -> tuple:
    """Shift every letter by d around the affine cycle and re-canonicalize."""
    if not g.is_affine:
        raise RankMismatch("rotate is only defined on affine graphs")
    return _cartier_foata_letters(g, tuple((s + d) % g.gens for s in w))


def reverse(g: CoxeterGraph, w: tuple) -> tuple:
    """Reverse the word and re-canonicalize; an involution."""
    return _cartier_foata_letters(g, w[::-1])


def enumerate_fc(g: CoxeterGraph, maxlen: int):
    """The canonical letters of each FC element of length <= maxlen, ordered
    by length then lexicographically.

    >>> [len(w) for w in enumerate_fc(path(2), 3)]
    [0, 1, 1, 2, 2]
    >>> len(enumerate_fc(path(3), 6))
    14
    """
    _check_len(maxlen)
    comm, adj = _tables(g)
    out = [()]
    level = {(): None}
    for _ in range(maxlen):
        nxt = {}
        for word in level:
            for s in range(g.gens):
                if _rightmost_redex(comm, adj, word + (s,)) is None:
                    nxt[_cartier_foata_letters(g, word + (s,))] = None
        level = nxt
        out.extend(sorted(level))
    return out


def parse_word(g: CoxeterGraph, text: str) -> tuple[int, ...]:
    """Whitespace-separated letters, no brackets: ``'s1 s2 a'``."""
    return tuple(g.parse_letter(tok) for tok in text.split())
