import itertools

import pytest

from affinetl import (
    CoxeterGraph,
    InvalidGenerator,
    LengthLimitExceeded,
    NotFcWord,
    RankMismatch,
    affine,
    enumerate_fc,
    fc_check,
    fc_word,
    parse_word,
    path,
    reverse,
    rotate,
    word_text,
)
from affinetl.verify import random_fc_letters


# ---------------------------------------------------------------------------
# independent oracle: reduced words of 321-avoiding permutations


def apply_word(n_strands, letters):
    perm = list(range(n_strands))
    for s in letters:
        perm[s], perm[s + 1] = perm[s + 1], perm[s]
    return tuple(perm)


def inversions(perm):
    return sum(
        1 for i, j in itertools.combinations(range(len(perm)), 2) if perm[i] > perm[j]
    )


def avoids_321(perm):
    return not any(
        perm[i] > perm[j] > perm[k]
        for i, j, k in itertools.combinations(range(len(perm)), 3)
    )


# ---------------------------------------------------------------------------


def test_pair_classification():
    g5 = affine(5)
    assert g5.commutes(0, 2)
    assert g5.tl_adjacent(0, 4)  # wrap edge
    assert g5.tl_adjacent(3, 4)
    g2 = affine(2)
    assert not g2.commutes(0, 1) and not g2.tl_adjacent(0, 1)  # free pair
    g3 = affine(3)
    for s, t in itertools.combinations(range(3), 2):
        assert g3.tl_adjacent(s, t)  # triangle
    p3 = path(3)
    assert p3.tl_adjacent(0, 1) and p3.commutes(0, 2)
    with pytest.raises(InvalidGenerator):
        p3.commutes(0, 5)
    with pytest.raises(InvalidGenerator):
        p3.tl_adjacent(1, 1)


def test_every_pair_in_exactly_one_class():
    for g in (affine(2), affine(3), affine(4), affine(5), path(1), path(3), path(4)):
        for s, t in itertools.combinations(range(g.gens), 2):
            assert g.commutes(s, t) + g.tl_adjacent(s, t) <= 1
            if g != affine(2):
                assert g.commutes(s, t) or g.tl_adjacent(s, t)


def test_cartier_foata_examples():
    assert fc_word(path(3), [2, 0, 1]) == (0, 2, 1)
    assert fc_word(affine(3), [1, 0, 2]) == (1, 0, 2)
    assert fc_word(path(3), [1, 0, 2, 1]) == (1, 0, 2, 1)
    with pytest.raises(NotFcWord):
        fc_word(path(3), [0, 1, 0])


def test_cartier_foata_idempotent_and_commutation_invariant(rng):
    for g in (path(4), affine(4), affine(5), affine(2)):
        for _ in range(200):
            letters = random_fc_letters(g, rng, 8)
            canon = fc_word(g, letters)
            assert fc_word(g, canon) == canon
            # apply random adjacent commuting swaps; the class is unchanged
            word = list(letters)
            for _ in range(12):
                if len(word) < 2:
                    break
                i = rng.randrange(len(word) - 1)
                if word[i] != word[i + 1] and g.commutes(word[i], word[i + 1]):
                    word[i], word[i + 1] = word[i + 1], word[i]
            assert fc_word(g, word) == canon
            assert fc_check(g, word)


def test_fc_check_examples():
    assert not fc_check(path(2), [0, 1, 0])
    assert fc_check(path(3), [1, 0, 2, 1])
    assert fc_check(affine(3), [0, 1, 2, 0])
    assert not fc_check(affine(3), [0, 1, 0])
    assert not fc_check(affine(2), [0, 0])
    assert fc_check(affine(2), [0, 1, 0, 1])


def test_fc_check_against_permutation_oracle():
    # on a path graph, redex-free words are exactly the reduced words of
    # 321-avoiding permutations
    for n in (2, 3):
        g = path(n)
        for length in range(0, 7):
            for word in itertools.product(range(n), repeat=length):
                perm = apply_word(n + 1, word)
                reduced = inversions(perm) == length
                assert fc_check(g, word) == (reduced and avoids_321(perm)), word


def test_rotate_and_reverse():
    g3 = affine(3)
    w = fc_word(g3, (0,))
    assert rotate(g3, w, 1) == (1,)
    v = fc_word(g3, (1, 0, 2))
    assert rotate(g3, v, 1) == (2, 1, 0)
    assert rotate(g3, v, 3) == v
    assert reverse(g3, fc_word(g3, (0, 1, 2))) == (2, 1, 0)
    assert reverse(g3, fc_word(g3, (0,))) == (0,)
    with pytest.raises(Exception):
        rotate(path(3), fc_word(path(3), (0,)), 1)


def test_rotate_reverse_preserve_fc(rng):
    g = affine(4)
    for _ in range(100):
        w = fc_word(g, random_fc_letters(g, rng, 8))
        for d in range(4):
            assert len(rotate(g, w, d)) == len(w)
        assert reverse(g, reverse(g, w)) == w
        assert len(reverse(g, w)) == len(w)


def test_enumerate_path_matches_oracle():
    # Catalan counts and element-by-element agreement
    expected_totals = {1: 2, 2: 5, 3: 14, 4: 42}
    for n, total in expected_totals.items():
        words = enumerate_fc(path(n), n * (n + 1) // 2)
        assert len(words) == total
        perms = {}
        for w in words:
            p = apply_word(n + 1, w)
            assert inversions(p) == len(w)
            assert p not in perms, "two canonical words for one element"
            perms[p] = w
        oracle = {
            p
            for p in itertools.permutations(range(n + 1))
            if avoids_321(p)
        }
        assert set(perms) == oracle


def test_enumerate_affine_counts():
    from collections import Counter

    counts = Counter(len(w) for w in enumerate_fc(affine(3), 10))
    assert [counts[i] for i in range(11)] == [1, 3] + [6] * 9
    counts2 = Counter(len(w) for w in enumerate_fc(affine(2), 8))
    assert [counts2[i] for i in range(9)] == [1] + [2] * 8
    counts4 = Counter(len(w) for w in enumerate_fc(affine(4), 4))
    assert counts4[0] == 1 and counts4[1] == 4


def test_top_generator_occurs_at_most_once_in_path_words():
    # the trace recursion splits at the top letter and needs uniqueness
    for n in (1, 2, 3, 4):
        for w in enumerate_fc(path(n), n * (n + 1) // 2):
            assert w.count(n - 1) <= 1


def test_enumerate_is_deterministic_and_sorted():
    words = enumerate_fc(affine(3), 5)
    assert words == enumerate_fc(affine(3), 5)
    keys = [(len(w), w) for w in words]
    assert keys == sorted(keys)


def test_enumerate_limit():
    with pytest.raises(LengthLimitExceeded):
        enumerate_fc(path(2), 100)


def test_letter_text_forms():
    g = affine(3)
    assert parse_word(g, "s1 s2 a") == (0, 1, 2)
    assert g.letter_name(2) == "a"
    assert word_text(g, fc_word(g, (0, 2))) == "[s1 a]"
    with pytest.raises(InvalidGenerator):
        parse_word(g, "s9")
    with pytest.raises(InvalidGenerator):
        parse_word(path(3), "a")


def test_graph_validation():
    for kind, gens in (("type-a-path", -1), ("weird", 3)):
        with pytest.raises(RankMismatch):
            CoxeterGraph(kind, gens)
    with pytest.raises(RankMismatch):
        affine(1)
    assert path(0).gens == 0


def test_graph_is_an_immutable_value():
    import pickle

    g = affine(3)
    assert g == CoxeterGraph("affine-cycle", 3) and hash(g) == hash(affine(3))
    assert g != path(3) and g != affine(4)
    with pytest.raises(AttributeError):
        g.gens = 4
    assert pickle.loads(pickle.dumps(g)) == g
    assert repr(g) == "CoxeterGraph(kind='affine-cycle', gens=3)"
    assert repr(path(0)) == "CoxeterGraph(kind='type-a-path', gens=0)"


def test_graph_refuses_tuple_arithmetic():
    # a named tuple would concatenate or repeat its fields into a plain tuple
    g = affine(3)
    for op in (lambda: g + g, lambda: g + (1,), lambda: (1,) + g, lambda: g * 2,
               lambda: 2 * g, lambda: g * g):
        with pytest.raises(TypeError):
            op()
    # tuple equality and hashing stay: the _tables cache keys on them
    assert g == ("affine-cycle", 3) and hash(g) == hash(("affine-cycle", 3))
