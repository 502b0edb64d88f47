import pytest

from affinetl import (
    DEFAULT_MAX_LEN,
    ONE,
    Q,
    BraidWord,
    E_map,
    F_map,
    InvalidGenerator,
    LengthLimitExceeded,
    ParseError,
    RankMismatch,
    TLElement,
    affine,
    braid_image,
    braid_lift,
    gen,
    include,
    multiply,
    parse_braid,
    path,
    widen,
)
from affinetl.verify import (
    braid_relators,
    check_relations,
    check_tower,
    check_twist,
    random_braid,
    random_element,
)

from conftest import assert_checks, assert_element_equal, free_reduce


def mono(g, letters, c=ONE):
    return TLElement.monomial(g, letters, c)


# ---------------------------------------------------------------------------
# F


def test_F_on_generators():
    g2, g3 = affine(2), affine(3)
    assert F_map(TLElement.one(g2)) == TLElement.one(g3)
    assert F_map(gen("f", 0, g2)) == gen("f", 0, g3)
    expected = (
        mono(g3, (2, 1), -(ONE + Q) / Q)
        + mono(g3, (1, 2), -(ONE + Q))
        + mono(g3, (1,))
        + mono(g3, (2,))
    )
    assert_element_equal(F_map(gen("f", 1, g2)), expected)
    # and in the g system the wrap generator goes to its conjugate
    conj = multiply(multiply(gen("g", 1, g3), gen("g", 2, g3)), gen("g_inv", 1, g3))
    assert F_map(gen("g", 1, g2)) == conj


@pytest.mark.parametrize("m", [2, 3, 4])
def test_F_is_homomorphism(m, rng):
    src = affine(m)
    for _ in range(20):
        x, y = random_element(src, rng, 2, 4), random_element(src, rng, 2, 4)
        assert_element_equal(F_map(multiply(x, y)), multiply(F_map(x), F_map(y)))


@pytest.mark.parametrize("kind", ["F", "E"])
@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_map_images_satisfy_source_relations(kind, m):
    assert_checks(check_relations(affine(m), F_map if kind == "F" else E_map))


# ---------------------------------------------------------------------------
# E and the inclusion


def test_E_on_generators():
    g2, g3 = affine(2), affine(3)
    p1, p2 = path(1), path(2)
    assert E_map(gen("g", 1, g2)) == gen("g", 0, p1)
    chain = multiply(multiply(gen("g", 0, p2), gen("g", 1, p2)), gen("g_inv", 0, p2))
    assert E_map(gen("g", 2, g3)) == chain
    assert E_map(gen("g", 0, g3)) == gen("g", 0, p2)


def test_E_section_of_include(rng):
    for n in (1, 2, 3):
        g = path(n)
        assert E_map(include(TLElement.one(g))) == TLElement.one(g)
    assert_checks(check_tower(rng, (2, 3, 4), 20, maxlen=5))
    assert E_map(include(gen("f", 0, path(1)))) == gen("f", 0, path(1))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_E_is_homomorphism(m, rng):
    src = affine(m)
    for _ in range(20):
        x, y = random_element(src, rng, 2, 4), random_element(src, rng, 2, 4)
        assert_element_equal(E_map(multiply(x, y)), multiply(E_map(x), E_map(y)))


@pytest.mark.parametrize("m", [2, 3, 4])
def test_tower_square_commutes(m, rng):
    # collapsing after a tower step equals widening the collapse
    assert_checks(check_tower(rng, (m,), 15))


def test_include_requires_classical():
    with pytest.raises(RankMismatch):
        include(TLElement.one(affine(3)))
    with pytest.raises(RankMismatch):
        widen(TLElement.one(path(3)), 2)


# ---------------------------------------------------------------------------
# the twist element and the double image


@pytest.mark.parametrize("m", [3, 4, 5])
def test_twist_conjugation_identity(m):
    # c * F(g_s) == F(g_{s-1 mod rank}) * c  for the descending-word twist c
    assert_checks(check_twist((m,)))


@pytest.mark.parametrize("m", [3, 4, 5])
def test_top_generator_commutes_with_double_image(m):
    tgt = affine(m)
    gtop = gen("g", m - 2, tgt)
    if m == 3:
        # the double image is the scalar multiples of 1
        assert multiply(gtop, TLElement.one(tgt)) == multiply(TLElement.one(tgt), gtop)
        return
    src = affine(m - 2)
    for s in range(m - 2):
        img = F_map(F_map(gen("g", s, src)))
        assert multiply(gtop, img) == multiply(img, gtop)


# ---------------------------------------------------------------------------
# braid words


def test_braid_parsing_and_inverse():
    b = parse_braid("s1 a^-1 s2'", 3)
    assert b.letters == ((0, 1), (2, -1), (1, -1))
    assert str(b) == "s1 a^-1 s2^-1"
    assert free_reduce(b * b.inverse()).letters == ()
    with pytest.raises(ParseError):
        parse_braid("s9", 3)
    with pytest.raises(InvalidGenerator):
        BraidWord(2, ((0, 2),))
    with pytest.raises(InvalidGenerator):
        BraidWord(2, ((2, 1),))
    with pytest.raises(RankMismatch):
        BraidWord(1, ())


def test_braid_word_is_an_immutable_value():
    import pickle

    b = parse_braid("s1 a^-1", 3)
    assert b == BraidWord(3, ((0, 1), (2, -1))) and hash(b) == hash(parse_braid("s1 a'", 3))
    assert b != BraidWord(4, b.letters) and b != b.inverse()
    with pytest.raises(AttributeError):
        b.letters = ()
    # invariant --jobs sends braids to its workers
    assert pickle.loads(pickle.dumps(b)) == b
    assert repr(b) == "BraidWord(gens=3, letters=((0, 1), (2, -1)))"


def test_braid_word_refuses_tuple_arithmetic():
    b, c = parse_braid("s1", 2), parse_braid("a^-1", 2)
    assert b * c == parse_braid("s1 a^-1", 2)
    for op in (lambda: b + c, lambda: b + (1,), lambda: (1,) + b, lambda: b * 2,
               lambda: 2 * b, lambda: b * affine(2), lambda: b * b.letters):
        with pytest.raises(TypeError):
            op()
    with pytest.raises(RankMismatch):
        b * parse_braid("s1", 3)


def test_braid_image_examples():
    g2 = affine(2)
    assert braid_image(parse_braid("s1", 2)) == gen("T", 0, g2)
    assert braid_image(parse_braid("a", 2)) == gen("T", 1, g2)
    assert braid_image(parse_braid("s1 s1^-1", 2)) == TLElement.one(g2)
    assert braid_image(parse_braid("", 2)) == TLElement.one(g2)


def test_braid_image_respects_relators(rng):
    for m in (2, 3, 4):
        rels = braid_relators(m)
        for r in rels:
            assert braid_image(BraidWord(m, r)) == TLElement.one(affine(m))
        for _ in range(15):
            b = random_braid(m, rng, 5)
            base = braid_image(b)
            if rels:
                r = rels[rng.randrange(len(rels))]
                cut = rng.randrange(len(b.letters) + 1)
                moved = BraidWord(m, b.letters[:cut] + r + b.letters[cut:])
                assert_element_equal(braid_image(moved), base)
            assert braid_image(free_reduce(b)) == base


def test_braid_lift_examples():
    b = parse_braid("a", 2)
    assert braid_lift(b).letters == ((1, 1), (2, 1), (1, -1))
    assert braid_lift(parse_braid("s1", 2)).letters == ((0, 1),)
    both = braid_lift(parse_braid("a a^-1", 2))
    assert braid_image(both) == TLElement.one(affine(3))


@pytest.mark.parametrize("m", [2, 3])
def test_braid_lift_compatible_with_F(m, rng):
    for _ in range(20):
        b = random_braid(m, rng, 5)
        assert_element_equal(braid_image(braid_lift(b)), F_map(braid_image(b)))


def test_free_reduce_idempotent(rng):
    for _ in range(50):
        b = random_braid(3, rng, 8)
        r = free_reduce(b)
        assert free_reduce(r) == r
        assert not any(
            r.letters[i] == (r.letters[i + 1][0], -r.letters[i + 1][1])
            for i in range(len(r.letters) - 1)
        )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_maps_match_qv_oracle(m, rng):
    import qv_oracle

    src = affine(m)
    for _ in range(12):
        x = random_element(src, rng, 3, 5)
        assert_element_equal(E_map(x), qv_oracle.apply_map("E", x))
        assert_element_equal(F_map(x), qv_oracle.apply_map("F", x))


def test_braid_image_length_cap_matches_qv_oracle(rng):
    # the fixed cap is checked per appended letter on both routes: a braid
    # that cycles through the generators has a top word as long as itself,
    # so one letter past the cap fires on both, and a braid at the cap not
    import qv_oracle

    for m in (2, 3):
        for n in (DEFAULT_MAX_LEN, DEFAULT_MAX_LEN + 1):
            b = BraidWord(m, tuple((i % m, rng.choice((1, -1))) for i in range(n)))
            if n > DEFAULT_MAX_LEN:
                with pytest.raises(LengthLimitExceeded):
                    qv_oracle.braid_image(b)
                with pytest.raises(LengthLimitExceeded):
                    braid_image(b)
            else:
                want = qv_oracle.braid_image(b)
                assert max(map(len, want.terms)) == DEFAULT_MAX_LEN
                # canonical forms compare exactly; the numeric re-check of
                # assert_element_equal would double the time of this test
                assert braid_image(b) == want
