import itertools

import pytest

from affinetl import (
    DELTA,
    ONE,
    Q,
    V,
    InvalidGenerator,
    LengthLimitExceeded,
    NotFcWord,
    ParseError,
    RankMismatch,
    TLElement,
    affine,
    chi,
    element_from_json,
    element_to_json,
    enumerate_fc,
    fc_word,
    format_element,
    from_g_word,
    gen,
    multiply,
    parse_element,
    path,
    psi,
    reduce_letters,
    rho,
    to_g_basis,
)
from affinetl.algebra import word_product
from affinetl.scalars import delta_pow
from affinetl.verify import check_products, check_relations, random_element, random_fc_letters

from conftest import assert_checks, assert_element_equal


def mono(g, letters, c=ONE):
    return TLElement.monomial(g, letters, c)


# a 64-letter basis word of affine(3), at the cap: (s1 s2 a)^21 s1
W64 = (0, 1, 2) * 21 + (0,)


def test_word_product_examples():
    g3, p3 = affine(3), path(3)
    assert word_product(g3, (0,), (0,)) == (0, 1, (0,))
    assert word_product(g3, (0, 1), (0,)) == (1, 0, (0,))
    assert word_product(p3, (0, 1, 2), (0,)) == (1, 0, (0, 2))
    assert word_product(p3, (0, 2), ()) == (0, 0, (0, 2))
    # the cap holds on the reduced word: a 65th letter that reduces away is fine
    assert word_product(g3, W64, (0,)) == (0, 1, W64)
    assert word_product(g3, (0,), W64) == (0, 1, W64)
    with pytest.raises(LengthLimitExceeded, match="word of length 65 exceeds cap 64"):
        word_product(g3, W64, (1,))


def test_letters_are_checked_at_the_boundary():
    # word_product trusts its operands; the entries that build them check
    p3 = path(3)
    with pytest.raises(InvalidGenerator):
        TLElement.monomial(p3, (7,))
    with pytest.raises(InvalidGenerator):
        reduce_letters(p3, (7,))


def test_constructor_checks_its_keys():
    p3 = path(3)
    for key in ((2, 0), (0, 1, 0)):  # not canonical, not FC
        with pytest.raises(NotFcWord):
            TLElement(p3, {key: ONE})
    with pytest.raises(InvalidGenerator):
        TLElement(p3, {(7,): ONE})
    assert TLElement(p3, {(0, 2): ONE}) == TLElement.monomial(p3, (2, 0))


def test_reduce_letters_returns_a_basis_word():
    p3 = path(3)
    assert reduce_letters(p3, (2, 0)) == (0, (0, 2))
    assert reduce_letters(p3, (2, 1, 0, 2)) == (1, (0, 2))
    _, word = reduce_letters(p3, (2, 0))
    assert TLElement(p3, {word: ONE}) == TLElement.monomial(p3, (2, 0))


def test_coeff_checks_its_letters():
    x = mono(path(3), (0, 1))
    with pytest.raises(InvalidGenerator):
        x.coeff((7, 0))
    assert x.coeff((1, 0)).is_zero()


def test_word_product_scale_contract(rng):
    # c f_w f_s == c DELTA^loops f_w2, checked through the generic multiply
    g = affine(4)
    for _ in range(50):
        x = random_element(g, rng, 1, 6)
        ((w, cw),) = x.terms.items()
        s = rng.randrange(g.gens)
        loops, _, letters = word_product(g, w, (s,))
        assert_element_equal(
            multiply(x, gen("f", s, g)),
            TLElement(g, {letters: cw * delta_pow(loops)}),
        )


def test_free_pair_rank2():
    g2 = affine(2)
    # no sandwich collapse ever fires: words alternate and only squares drop
    assert multiply(mono(g2, (0,)), mono(g2, (1,))) == mono(g2, (0, 1))
    assert multiply(mono(g2, (0, 1)), mono(g2, (1, 0))) == mono(g2, (0, 1, 0))
    assert multiply(mono(g2, (0,)), mono(g2, (0,))) == mono(g2, (0,))
    long = multiply(mono(g2, (0, 1) * 3), mono(g2, (0, 1) * 2))
    assert long == mono(g2, (0, 1) * 5)


def test_multiply_identity_and_rank_check():
    g3 = affine(3)
    x = mono(g3, (0, 1, 2), DELTA)
    assert multiply(x, TLElement.one(g3)) == x
    assert multiply(TLElement.one(g3), x) == x
    with pytest.raises(RankMismatch):
        multiply(x, TLElement.one(affine(4)))


def test_orbit_power_product_example():
    g3 = affine(3)
    x = mono(g3, (1, 0, 2))
    y = mono(g3, (0, 1, 2))
    assert_element_equal(
        multiply(multiply(x, x), y), mono(g3, (1, 0, 2), DELTA ** 3)
    )


def test_generator_styles():
    import qv_oracle

    g3 = affine(3)
    for s in range(3):
        assert multiply(gen("g_inv", s, g3), gen("g", s, g3)) == TLElement.one(g3)
        assert multiply(gen("T_inv", s, g3), gen("T", s, g3)) == TLElement.one(g3)
        assert gen("T", s, g3) == gen("g", s, g3).scale(V)
        for style in qv_oracle.GENERATORS:
            assert gen(style, s, g3) == qv_oracle.gen(style, s, g3)
    expected = TLElement(
        g3,
        {
            fc_word(g3, (0,)): ONE + Q,
            fc_word(g3, ()): -ONE,
        },
    )
    assert gen("g", 0, g3) == expected
    for style in ("h", "f_inv"):
        with pytest.raises(ValueError):
            gen(style, 0, g3)


def test_quadratic_relation_all_styles():
    g3 = affine(3)
    one = TLElement.one(g3)
    for s in range(3):
        gs = gen("g", s, g3)
        assert_element_equal(multiply(gs, gs), gs.scale(Q - ONE) + one.scale(Q))
        ts = gen("T", s, g3)
        assert_element_equal(
            multiply(ts, ts), ts.scale(V * (Q - ONE)) + one.scale(Q ** 2)
        )


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_defining_relations_affine(m):
    assert_checks(check_relations(affine(m)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_defining_relations_classical(n):
    assert_checks(check_relations(path(n)))


def test_to_g_basis_examples():
    g3 = affine(3)
    unit = fc_word(g3, ())
    w1 = fc_word(g3, (0,))
    gb = to_g_basis(mono(g3, (0,)))
    assert gb == {w1: ONE / (ONE + Q), unit: ONE / (ONE + Q)}
    assert to_g_basis(TLElement.one(g3)) == {unit: ONE}
    gb2 = to_g_basis(mono(g3, (0, 1)))
    c = ONE / (ONE + Q) ** 2
    assert gb2 == {
        fc_word(g3, (0, 1)): c,
        w1: c,
        fc_word(g3, (1,)): c,
        unit: c,
    }


def test_g_basis_roundtrip(rng):
    import qv_oracle

    for g in (affine(2), affine(3), affine(4), path(3)):
        for _ in range(25):
            x = random_element(g, rng, 3, 6)
            back = TLElement.zero(g)
            for w, c in to_g_basis(x).items():
                back = back + from_g_word(g, w).scale(c)
            assert_element_equal(back, x)
            # and the reverse round trip on a monomial g-word
            w = max(x.terms, key=lambda u: (len(u), u)) if x.terms else None
            if w is not None:
                assert to_g_basis(from_g_word(g, w)) == {w: ONE}
                assert from_g_word(g, w) == qv_oracle.g_word_element(g, w)


def test_psi_properties(rng):
    g = affine(4)
    assert psi(mono(g, (0,)), 1) == mono(g, (1,))
    for _ in range(30):
        x = random_element(g, rng, 2, 5)
        y = random_element(g, rng, 2, 5)
        assert psi(x, 4) == x
        assert_element_equal(
            psi(multiply(x, y), 1), multiply(psi(x, 1), psi(y, 1))
        )
    with pytest.raises(RankMismatch):
        psi(TLElement.one(path(3)), 1)


def test_chi_properties(rng):
    g = affine(3)
    assert chi(TLElement.one(g)) == TLElement.one(g)
    for _ in range(30):
        x = random_element(g, rng, 2, 6)
        assert_element_equal(chi(chi(x)), x)
        y = random_element(g, rng, 2, 6)
        # reversal is an anti-automorphism on products of basis monomials
        assert_element_equal(chi(multiply(x, y)), multiply(chi(y), chi(x)))


def test_rewriting_confluence(rng):
    assert_checks(check_products(rng, [affine(2), affine(3), affine(4), path(3)], 150, 2, 6))


def test_associativity(rng):
    assert_checks(check_products(rng, [affine(2), affine(3), affine(4)], 60, 2, 4))


def test_length_cap():
    # the free pair of affine(2) never reduces: the words only grow
    g2 = affine(2)
    x = mono(g2, (0, 1) * 16)
    assert multiply(x, x) == mono(g2, (0, 1) * 32)
    with pytest.raises(LengthLimitExceeded, match="word of length 65 exceeds cap 64"):
        multiply(multiply(x, x), mono(g2, (0,)))
    assert multiply(multiply(x, x), mono(g2, (1,))) == mono(g2, (0, 1) * 32)
    # reduce_letters bounds its raw input, which may reduce to a short word
    with pytest.raises(LengthLimitExceeded, match="word of length 80 exceeds cap 64"):
        reduce_letters(g2, (0, 1) * 40)
    with pytest.raises(LengthLimitExceeded, match="word of length 65 exceeds cap 64"):
        reduce_letters(g2, (0,) * 65)
    assert reduce_letters(g2, (0,) * 64) == (0, (0,))


def test_length_cap_is_the_same_in_both_orders():
    g3 = affine(3)
    w, s1 = mono(g3, W64), mono(g3, (0,))
    assert multiply(w, s1) == w == multiply(s1, w)
    # s2 extends W64 on the right, a on the left: 65 letters either way
    for a, b in ((w, mono(g3, (1,))), (mono(g3, (2,)), w)):
        with pytest.raises(LengthLimitExceeded, match="word of length 65 exceeds cap 64"):
            multiply(a, b)


def test_every_entry_refuses_a_word_past_the_cap():
    g3 = affine(3)
    w65 = W64 + (1,)
    text = "[" + " ".join(g3.letter_name(s) for s in w65) + "]"
    entries = (
        lambda: parse_element(text, g3),
        lambda: parse_element("[s1] + 2*" + text, g3),
        lambda: element_from_json([{"coeff": "1", "word": text[1:-1].split()}], g3),
        lambda: TLElement(g3, {w65: ONE}),
        lambda: TLElement.monomial(g3, w65),
        lambda: TLElement.one(g3).coeff(w65),
        lambda: fc_word(g3, w65),
        # the basis words that enter are capped, so none reaches a map or a
        # trace whose recursion is as deep as the word
        lambda: TLElement.monomial(g3, (0, 1, 2) * 200),
    )
    for entry in entries:
        with pytest.raises(LengthLimitExceeded, match="exceeds cap 64"):
            entry()


def test_a_word_at_the_cap_is_accepted():
    g3 = affine(3)
    text = "[" + " ".join(g3.letter_name(s) for s in W64) + "]"
    x = parse_element(text, g3)
    assert x == mono(g3, W64) == TLElement(g3, {W64: ONE})
    assert element_from_json(element_to_json(x), g3) == x
    # a word of length 3k + 1 takes the value of its orbit family at 3k, the
    # solver's beta_21 (tests/test_traces.py)
    assert rho(x) == rho(mono(g3, (0, 1, 2) * 21)) == -ONE / (ONE + Q) ** 63


def test_juxtaposed_groups_multiply(rng):
    for g in (affine(2), affine(3), affine(4), path(3)):
        for _ in range(25):
            u, w = random_fc_letters(g, rng, 6), random_fc_letters(g, rng, 6)
            text = "".join("[" + " ".join(g.letter_name(s) for s in x) + "]" for x in (u, w))
            assert parse_element(text, g) == multiply(mono(g, u), mono(g, w)), text
    g3 = affine(3)
    # juxtaposition binds tighter than + and -
    assert parse_element("[s1][s2] + [a]", g3) == mono(g3, (0, 1)) + mono(g3, (2,))
    assert parse_element("[s1]-[s1][s2]", g3) == mono(g3, (0,)) - mono(g3, (0, 1))
    assert parse_element("q*[s1] [s2 s1]", g3) == mono(g3, (0,), Q * DELTA)
    with pytest.raises(ParseError, match="expected '\\[' after '\\]'"):
        parse_element("[s1] x [s2]", g3)
    # each loop multiplies the coefficient under the parse's degree bound:
    # DELTA^128 has degree 512
    assert parse_element("[s1][s2]" * 129, g3) == mono(g3, (0, 1), DELTA ** 128)
    with pytest.raises(ParseError, match="degree 512"):
        parse_element("[s1][s2]" * 130, g3)


# coefficient texts and their values, written without the scalar parser;
# None is a term with no coefficient
COEFF_TEXTS = (("2", ONE + ONE), ("q^2", Q * Q), ("1/(1+q)", ONE / (ONE + Q)),
               ("(-1/q)", -ONE / Q), ("v^-1*q", Q / V), ("( 1 + q )", ONE + Q), (None, ONE))


def test_element_grammar_oracle(rng):
    # texts built from parts of known value: each term is a run of signs, an
    # optional coefficient and one to three juxtaposed FC words, and the
    # reader must give the sum of sign * c * the product of the monomials
    def ws():
        return rng.choice(("", " ", "  ", "\t", "\n"))

    for g in (affine(2), affine(3), affine(4), path(3)):
        for _ in range(40):
            text, want = "", TLElement.zero(g)
            for i in range(rng.randint(1, 4)):
                signs = [rng.choice("+-") for _ in range(rng.randint(1 if i else 0, 3))]
                coeff_text, c = rng.choice(COEFF_TEXTS)
                text += ws() + "".join(sign + ws() for sign in signs)
                if coeff_text is not None:
                    text += coeff_text + ws() + "*" + ws()
                product = TLElement.one(g)
                for _ in range(rng.randint(1, 3)):
                    w = random_fc_letters(g, rng, 5)
                    text += "[" + ws() + " ".join(g.letter_name(s) for s in w) + ws() + "]" + ws()
                    product = multiply(product, mono(g, w))
                want = want + product.scale(c * (-1) ** signs.count("-"))
            assert parse_element(text, g) == want, repr(text)


def test_element_grammar_errors_and_signs():
    g3 = affine(3)
    # "*" binds tighter than "+" and "-", so a sum before "*[" is not a
    # coefficient, and each error names its position in the whole text
    for text, pos in (("1+q*[s1]", 1), ("q-1*[s1]", 1), ("[s2] - 1+q*[s1]", 8)):
        with pytest.raises(ParseError, match=f"expected '\\*' \\(at position {pos}\\)"):
            parse_element(text, g3)
    for text, pos in (("2*[s1] + (q+)*[s2]", 12), ("-(q+)*[s1]", 4)):
        with pytest.raises(ParseError, match=f"expected a value \\(at position {pos}\\)"):
            parse_element(text, g3)
    for text in ("2", "2*", "[s1", "[s1] +", "[s1] 2*[s2]"):
        with pytest.raises(ParseError, match="at position"):
            parse_element(text, g3)
    # a run of signs is read the same before a word and before a coefficient
    s1_minus_s2 = mono(g3, (0,)) - mono(g3, (1,))
    for text in ("[s1] + -[s2]", "[s1] - [s2]", "[s1] - +1*[s2]", "--[s1] -+- -[s2]"):
        assert parse_element(text, g3) == s1_minus_s2, text
    assert parse_element("[s1] + -3*[s2]", g3) == mono(g3, (0,)) - mono(g3, (1,), ONE * 3)


def test_classical_span_is_closed():
    # products of basis words stay inside the Catalan-dimensional span
    for n in (2, 3, 4):
        g = path(n)
        words = enumerate_fc(g, n * (n + 1) // 2)
        basis = set(words)
        for a, b in itertools.product(words, repeat=2):
            prod = multiply(mono(g, a), mono(g, b))
            ((w, c),) = prod.terms.items()
            assert w in basis


def test_parse_format_roundtrip(rng):
    g3 = affine(3)
    x = parse_element("(-1/q)*[s1 a s2] + (1/(1+q))*[s1 s2]", g3)
    assert x.coeff((0, 2, 1)) == -ONE / Q
    assert x.coeff((0, 1)) == ONE / (ONE + Q)
    assert parse_element("[]", g3) == TLElement.one(g3)
    assert parse_element("[s1] - [s2]", g3) == mono(g3, (0,)) - mono(g3, (1,))
    for _ in range(40):
        y = random_element(g3, rng, 3, 5)
        assert parse_element(format_element(y), g3) == y
        assert element_from_json(element_to_json(y), g3) == y
    zero = TLElement.zero(g3)
    assert format_element(zero) == "0"
    assert parse_element(format_element(zero), g3) == zero == parse_element(" 0\n", g3)


def test_parse_corner_cases():
    g3 = affine(3)
    assert parse_element("- [s1] + [s2]", g3) == mono(g3, (1,)) - mono(g3, (0,))
    assert parse_element("+[s1]", g3) == mono(g3, (0,))
    assert parse_element("2 * [s1]", g3) == mono(g3, (0,), ONE + ONE)
    assert parse_element("1/(1+q)*[s1]", g3) == mono(g3, (0,), ONE / (ONE + Q))
    assert parse_element("q^2*[s1 s2]", g3) == mono(g3, (0, 1), Q ** 2)
    assert parse_element("(-2)*[s1] - (-1/q)*[s2]", g3) == (
        mono(g3, (0,), -(ONE + ONE)) + mono(g3, (1,), ONE / Q)
    )


def test_parse_budget_spans_the_element():
    # each coefficient alone is within the budget, all of them together are
    # not; like terms add under the same degree bound as a scalar text
    g = affine(3)
    with pytest.raises(ParseError, match="budget"):
        parse_element(" + ".join(["(1+v)^512*[s1]"] * 20), g)
    with pytest.raises(ParseError, match="budget"):
        element_from_json([{"coeff": "(1+v)^512", "word": [f"s{i % 2 + 1}"]} for i in range(20)], g)
    with pytest.raises(ParseError, match="degree 512"):
        parse_element("1/(1+v)^256*[s1] + 1/(2+v)^256*[s1] + 1/(3+v)^256*[s1]", g)
    x = parse_element("q*[s1] + (1/(1+q))*[s1 s2] - q*[s1]", g)
    assert x == TLElement.monomial(g, (0, 1), ONE / (ONE + Q))


def test_parse_errors():
    g3 = affine(3)
    with pytest.raises(InvalidGenerator):
        parse_element("[s1 s9]", g3)
    with pytest.raises(ParseError):
        parse_element("", g3)
    with pytest.raises(ParseError):
        parse_element("2*", g3)
    with pytest.raises(NotFcWord):
        parse_element("[s1 s1]", g3)


def test_g_basis_render():
    g3 = affine(3)
    assert format_element(mono(g3, (0,)), basis="g") == (
        "(1/(v^2+1))*[] + (1/(v^2+1))*[s1]"
    )


def test_scale_operators(rng):
    g3 = affine(3)
    x = random_element(g3, rng, 2, 4)
    assert x.scale(Q) == Q * x == x * Q
    assert (x * 2) == x + x
    assert (x ** 2) == multiply(x, x)
    assert (x ** 0) == TLElement.one(g3)
    with pytest.raises(ValueError):
        x ** -1


def test_coeff_accessor_and_zero_pruning():
    p3 = path(3)
    x = mono(p3, (0, 2)) - mono(p3, (2, 0))  # same canonical word: cancels
    assert x.is_zero() and x.terms == {}
    y = mono(p3, (0, 1), Q)
    assert y.coeff((0, 1)) == Q
    assert y.coeff((1,)).is_zero()
