"""Trace tests.

Two fully independent oracles guard the trace pipeline:

- a scalar-only recursion for traces of T-powers on two strands, using just
  the quadratic relation, and
- a five-dimensional table reducer for the classical algebra on two
  generators, used to evaluate the affine rank-3 trace of any basis monomial
  without touching the element engine's rewriting or basis conversion.
"""
import itertools

import pytest

from affinetl import (
    DELTA,
    FREE_STRAND_FACTOR,
    ONE,
    LengthLimitExceeded,
    NotFcWord,
    Q,
    V,
    RankMismatch,
    Scalar,
    TLElement,
    TraceParamsTL2,
    TraceParamsTL3,
    affine,
    build_xz,
    chi,
    classify_orbit3,
    enumerate_fc,
    fc_check,
    fc_word,
    from_g_word,
    gen,
    generic_trace2,
    generic_trace3,
    include,
    invariant,
    jones_trace,
    multiply,
    parse_braid,
    path,
    psi,
    rho,
    rotate,
    solve_alpha_beta,
)
from affinetl.morphisms import braid_image
from affinetl.verify import (
    check_classical_markov,
    check_generic_trace2,
    check_link_invariance,
    check_markov,
    check_orbit_products,
    check_rho_symmetry,
    check_solver,
    check_trace_values,
    check_xz,
    random_braid,
    random_element,
    random_scalar,
)

from conftest import assert_checks, assert_element_equal, assert_scalar_equal, free_reduce


def mono(g, letters, c=ONE):
    return TLElement.monomial(g, letters, c)


# ---------------------------------------------------------------------------
# oracle 1: traces of powers of one T-generator, scalars only


def t_power_trace(k: int) -> Scalar:
    """Trace of T^k on two strands via T^2 = v(q-1) T + q^2."""
    a, b = ONE, Scalar(())  # T^1 = a*T + b
    for _ in range(k - 1):
        a, b = a * V * (Q - ONE) + b, a * Q ** 2
    return a * ONE + b * (-(ONE + Q) / V)


# ---------------------------------------------------------------------------
# oracle 2: the classical algebra on two generators as a 5-dim table algebra


_TABLE_BASIS = [(), (0,), (1,), (0, 1), (1, 0)]
_TAU3 = {
    (): (ONE + Q) ** 2 / Q,
    (0,): -(ONE + Q) / Q,
    (1,): -(ONE + Q) / Q,
    (0, 1): ONE / Q,
    (1, 0): ONE / Q,
}
_reduce_cache: dict = {}


def reduce_g_word_2gen(word: tuple) -> dict:
    """Expand a g-word over two generators in the 5-element basis, using only
    the quadratic relation and the vanishing of x y x + x y + y x + x + y + 1."""
    if word in _reduce_cache:
        return _reduce_cache[word]
    if word in ((), (0,), (1,), (0, 1), (1, 0)):
        out = {word: ONE}
    else:
        out = {}
        pair = next((i for i in range(len(word) - 1) if word[i] == word[i + 1]), None)
        if pair is not None:
            head, tail = word[:pair], word[pair + 2:]
            s = word[pair]
            for u, c in reduce_g_word_2gen(head + (s,) + tail).items():
                out[u] = out.get(u, Scalar(())) + c * (Q - ONE)
            for u, c in reduce_g_word_2gen(head + tail).items():
                out[u] = out.get(u, Scalar(())) + c * Q
        else:
            s, t = word[0], word[1]
            rest = word[3:]
            for repl in ((s, t), (t, s), (s,), (t,), ()):
                for u, c in reduce_g_word_2gen(repl + rest).items():
                    out[u] = out.get(u, Scalar(())) - c
        out = {u: c for u, c in out.items() if not c.is_zero()}
    _reduce_cache[word] = out
    return out


def table_mul(x: dict, y: dict) -> dict:
    out: dict = {}
    for u, cu in x.items():
        for v, cv in y.items():
            for w, c in reduce_g_word_2gen(u + v).items():
                out[w] = out.get(w, Scalar(())) + cu * cv * c
    return {w: c for w, c in out.items() if not c.is_zero()}


def table_scale(x: dict, c: Scalar) -> dict:
    return {w: c * cw for w, cw in x.items()}


def table_add(x: dict, y: dict) -> dict:
    out = dict(x)
    for w, c in y.items():
        out[w] = out.get(w, Scalar(())) + c
    return {w: c for w, c in out.items() if not c.is_zero()}


def table_letter_image(s: int) -> dict:
    """Image of the rank-3 idempotent generator s in the table algebra."""
    inv_qp1 = (ONE + Q).inv()
    if s in (0, 1):
        return {(s,): inv_qp1, (): inv_qp1}
    # wrap generator: (g0 g1 g0^{-1} + 1) / (q+1)
    g0g1 = {(0, 1): ONE}
    g0inv_terms = [((0,), ONE / Q), ((), (ONE - Q) / Q)]
    img: dict = {}
    for u, cu in g0g1.items():
        for v, cv in g0inv_terms:
            for w, c in reduce_g_word_2gen(u + v).items():
                img[w] = img.get(w, Scalar(())) + cu * cv * c
    img[()] = img.get((), Scalar(())) + ONE
    return table_scale(img, inv_qp1)


def rho3_oracle(letters: tuple) -> Scalar:
    """Affine rank-3 trace of a basis monomial, entirely via the oracle."""
    acc = {(): ONE}
    for s in letters:
        acc = table_mul(acc, table_letter_image(s))
    out = Scalar(())
    for w, c in acc.items():
        out = out + c * _TAU3[w]
    return out


def test_engine_products_match_table_oracle():
    # the rewriting multiplication agrees with the independent table algebra
    # on every pair of basis words of the classical two-generator algebra
    p2 = path(2)
    words = enumerate_fc(p2, 3)
    assert len(words) == 5
    inv_qp1 = (ONE + Q).inv()

    def f_image(letters):
        acc = {(): ONE}
        for s in letters:
            acc = table_mul(acc, {(s,): inv_qp1, (): inv_qp1})
        return acc

    def to_table(elem):
        out: dict = {}
        for w, c in elem.terms.items():
            for u, cu in f_image(w).items():
                out[u] = out.get(u, Scalar(())) + c * cu
        return {u: c for u, c in out.items() if not c.is_zero()}

    for a in words:
        for b in words:
            engine = multiply(mono(p2, a), mono(p2, b))
            oracle = table_mul(f_image(a), f_image(b))
            assert to_table(engine) == oracle, (a, b)


# ---------------------------------------------------------------------------
# classical trace values


def test_trace_values_match_power_oracle():
    p1 = path(1)
    t = gen("T", 0, p1)
    acc = TLElement.one(p1)
    for k in range(1, 7):
        acc = multiply(acc, t)
        assert_scalar_equal(jones_trace(acc), t_power_trace(k), f"T^{k}")


def test_trace_frozen_values():
    assert_checks(check_trace_values())
    p1 = path(1)
    t = gen("T", 0, p1)
    assert jones_trace(gen("T_inv", 0, p1)) == ONE
    assert_scalar_equal(jones_trace(multiply(t, t)), -V * (ONE + Q ** 2))
    assert jones_trace(TLElement.one(path(0))) == ONE
    assert jones_trace(TLElement.one(path(3))) == FREE_STRAND_FACTOR ** 3


def test_trace_agrees_with_g_route(rng):
    import qv_oracle

    for n in (1, 2, 3, 4):
        g = path(n)
        for _ in range(15):
            x = random_element(g, rng, 2, 6)
            assert jones_trace(x) == qv_oracle.jones_trace_g_route(x)


def test_classical_markov_property(rng):
    assert_checks(check_classical_markov(rng, (2, 3, 4), 40, ("T", "T_inv")))


def test_classical_trace_symmetry(rng):
    for n in (2, 3, 4):
        g = path(n)
        for _ in range(30):
            x, y = random_element(g, rng, 2, 4), random_element(g, rng, 2, 4)
            assert jones_trace(multiply(x, y)) == jones_trace(multiply(y, x))


# ---------------------------------------------------------------------------
# affine trace values


def test_rho_short_values():
    assert_checks(check_trace_values())
    g3 = affine(3)
    assert rho(mono(g3, (1,))) == ONE
    assert rho(mono(g3, (2,))) == ONE
    assert_scalar_equal(rho(mono(g3, (0, 2, 1))), -(Q ** 3) / (ONE + Q) ** 3)
    assert_scalar_equal(rho(mono(g3, (1, 2, 0))), -ONE / (ONE + Q) ** 3)


def test_rho_matches_table_oracle_on_all_short_words():
    for w in enumerate_fc(affine(3), 9):
        assert_scalar_equal(
            rho(TLElement(affine(3), {w: ONE})), rho3_oracle(w), str(w)
        )


def test_rho_symmetry_and_rotation(rng):
    assert_checks(check_rho_symmetry(rng, (2, 3, 4, 5), 25))
    for m in (2, 3, 4, 5):
        assert_checks(check_markov(rng, m, 25))


def test_affine_markov_conditions(rng):
    for m in (2, 3, 4):
        assert_checks(check_markov(rng, m, 25))


def test_rho_agrees_with_classical_on_included_elements(rng):
    for n in (1, 2, 3):
        g = path(n)
        for _ in range(20):
            x = random_element(g, rng, 2, 4)
            assert rho(include(x)) == jones_trace(x)


# ---------------------------------------------------------------------------
# the generic rank-2 and rank-3 functionals


def test_generic_trace2_is_trace_for_arbitrary_params(rng):
    g2 = affine(2)
    p = TraceParamsTL2(random_scalar(rng), random_scalar(rng), lambda k: DELTA ** k)
    assert generic_trace2(p, TLElement.one(g2)) == p.A0
    assert generic_trace2(p, mono(g2, (0,))) == p.A1
    assert generic_trace2(p, mono(g2, (1,))) == p.A1
    assert generic_trace2(p, mono(g2, (0, 1) * 3)) == DELTA ** 3
    assert_checks(check_generic_trace2(rng, 60, 7))
    with pytest.raises(RankMismatch):
        generic_trace2(p, TLElement.one(affine(3)))


def test_generic_trace2_rotation_invariance(rng):
    g2 = affine(2)
    p = TraceParamsTL2(random_scalar(rng), random_scalar(rng), lambda k: DELTA ** k)
    for _ in range(30):
        x = random_element(g2, rng, 2, 6)
        assert generic_trace2(p, psi(x, 1)) == generic_trace2(p, x)


def test_orbit_classification():
    g3 = affine(3)
    fwd, rev = (0, 1, 2), (1, 0, 2)
    assert classify_orbit3(g3, fc_word(g3, fwd)) == ("fwd", 1, 0)
    assert classify_orbit3(g3, fc_word(g3, rev)) == ("rev", 1, 0)
    assert classify_orbit3(g3, fc_word(g3, fwd + (0,))) == ("fwd", 1, 1)
    assert classify_orbit3(g3, fc_word(g3, fwd + (0, 1))) == ("fwd", 1, 2)
    assert classify_orbit3(g3, fc_word(g3, (0, 2, 1))) == ("rev", 1, 0)
    # every enumerated word of length >= 3 classifies, covering both families
    seen = set()
    for w in enumerate_fc(affine(3), 11):
        if len(w) >= 3:
            family, k, rem = classify_orbit3(g3, w)
            assert 3 * k + rem == len(w)
            seen.add((family, rem))
    assert seen == {(f, r) for f in ("fwd", "rev") for r in (0, 1, 2)}
    with pytest.raises(RankMismatch):
        classify_orbit3(g3, fc_word(g3, (0,)))


def orbit_table(length: int) -> dict:
    """The rank-3 basis words of one length, each with its (family, k, rem):
    every one is a rotation of the power-plus-prefix word of exactly one
    family.  The oracle of the step rule of classify_orbit3."""
    g3, k, rem = affine(3), *divmod(length, 3)
    table = {}
    for family, base, prefixes in (("fwd", (0, 1, 2), ((), (0,), (0, 1))),
                                   ("rev", (1, 0, 2), ((), (1,), (1, 0)))):
        for d in range(3):
            table[rotate(g3, base * k + prefixes[rem], d)] = (family, k, rem)
    return table


def test_orbit_rule_matches_the_rotation_table():
    g3 = affine(3)
    words = [w for w in enumerate_fc(g3, 40) if len(w) >= 3]
    tables = {n: orbit_table(n) for n in range(3, 41)}
    assert set(words) == {w for table in tables.values() for w in table}
    for w in words:
        assert classify_orbit3(g3, w) == tables[len(w)][w]
    # a tuple over the letters 0..3 that the table lacks is not a basis word
    for n in range(3, 8):
        for w in itertools.product(range(4), repeat=n):
            if w in tables[n]:
                assert classify_orbit3(g3, w) == tables[n][w]
            else:
                with pytest.raises(NotFcWord):
                    classify_orbit3(g3, w)


def test_generic_trace3_value_table():
    import random as _r

    g3 = affine(3)
    r = _r.Random(5)
    p = TraceParamsTL3(
        B0=random_scalar(r),
        B1=random_scalar(r),
        B2=random_scalar(r),
        beta=lambda k: DELTA ** k,
        beta_rev=lambda k: Q ** k,
    )
    assert generic_trace3(p, mono(g3, (1,))) == p.B1
    assert generic_trace3(p, mono(g3, (0, 1, 2, 0))) == DELTA  # fwd, k=1
    assert generic_trace3(p, mono(g3, (0, 1, 2, 0, 1))) == DELTA * DELTA
    assert generic_trace3(p, mono(g3, (1, 0, 2))) == Q  # rev, k=1
    # the table has no default: each family's sequence is passed
    with pytest.raises(TypeError):
        TraceParamsTL3(p.B0, p.B1, p.B2, beta=lambda k: DELTA ** k)


def rho_params3(kmax: int) -> TraceParamsTL3:
    """Parameter pack making generic_trace3 agree with rho on words of
    length at most 3*kmax + 2."""
    _, betas, beta_revs = solve_alpha_beta(kmax)
    g3 = affine(3)
    return TraceParamsTL3(
        B0=rho(TLElement.one(g3)),
        B1=rho(mono(g3, (0,))),
        B2=rho(mono(g3, (0, 1))),
        beta=lambda k: betas[k - 1],
        beta_rev=lambda k: beta_revs[k - 1],
    )


def test_generic_trace3_reproduces_rho():
    kmax = 3
    p = rho_params3(kmax)
    for w in enumerate_fc(affine(3), 3 * kmax + 2):
        x = TLElement(affine(3), {w: ONE})
        assert_scalar_equal(generic_trace3(p, x), rho(x), str(w))


# ---------------------------------------------------------------------------
# the x/z machinery


def test_x1_is_the_tower_image_of_the_generator_product():
    from affinetl import F_map

    g2 = affine(2)
    x1, z1 = build_xz(1)
    assert_element_equal(x1, F_map(multiply(gen("f", 0, g2), gen("f", 1, g2))))
    assert_element_equal(z1, F_map(multiply(gen("f", 1, g2), gen("f", 0, g2))))


def test_xz_closed_forms():
    assert_checks(check_xz(1))
    with pytest.raises(ValueError, match="i >= 1"):
        build_xz(0)  # the e-basis table of x_i and z_i holds for i >= 1 only


def test_build_xz_at_the_cap():
    # x_i has words of 3i letters, so the word cap of 64 allows i <= 21
    x21, z21 = build_xz(21)
    assert max(map(len, x21.terms)) == max(map(len, z21.terms)) == 63
    assert z21 == chi(x21)
    with pytest.raises(LengthLimitExceeded, match="word of length 66 exceeds cap 64"):
        build_xz(22)


def test_xz_general_closed_forms():
    # x_i f2 and f2 z_i collapse to two terms; the leading coefficients are
    # (-1)^i (q+1)^{i-1} / q^i  and  (-1)^i q (q+1)^{i-1}, the signs being
    # forced by the i = 1 case and by the bar symmetry between the two sides
    g3 = affine(3)
    f2 = mono(g3, (1,))
    for i in range(1, 6):
        xi, zi = build_xz(i)
        sign = ONE if (i - 1) % 2 == 0 else -ONE  # (-1)^{i-1}
        expected_x = mono(
            g3, (0, 2, 1) * i, -sign * (ONE + Q) ** (i - 1) / Q ** i
        ) + mono(g3, (0, 1, 2) * (i - 1) + (0, 1), sign * (ONE + Q) ** (i - 2))
        assert_element_equal(multiply(xi, f2), expected_x, f"x_{i} f2")
        expected_z = mono(
            g3, (1, 2, 0) * i, -sign * Q * (ONE + Q) ** (i - 1)
        ) + mono(g3, (1, 0) + (2, 1, 0) * (i - 1), sign * ((ONE + Q) / Q) ** (i - 2))
        assert_element_equal(multiply(f2, zi), expected_z, f"f2 z_{i}")
        # the two sides are bar images of one another term by term
        assert_element_equal(chi(multiply(xi, f2)), multiply(f2, zi))


def test_x_recurrence_and_commutation():
    assert_checks(check_xz(6))
    x1, z1 = build_xz(1)
    for i in range(2, 7):
        xi, zi = build_xz(i)
        assert multiply(x1, xi) == multiply(xi, x1)
        # the mirrored recurrence through chi
        zprev, znext = build_xz(i - 1)[1], build_xz(i + 1)[1]
        assert_element_equal(
            multiply(zi, z1), zprev.scale(DELTA ** 2) + zi.scale(2 * DELTA) + znext
        )


def test_chi_swaps_x_and_z():
    assert_checks(check_xz(6))
    for i in range(1, 7):
        xi, zi = build_xz(i)
        assert_element_equal(chi(zi), xi)


# ---------------------------------------------------------------------------
# the orbit-family product formulas


@pytest.mark.parametrize("h,k", list(itertools.product(range(1, 6), repeat=2)))
def test_orbit_power_products(h, k):
    assert_checks(check_orbit_products([(h, k)]))


# ---------------------------------------------------------------------------
# the solver


def test_solve_alpha_beta_values():
    assert_checks(check_solver(6))
    _, betas, beta_revs = solve_alpha_beta(6)
    g3 = affine(3)
    for k in range(1, 7):
        assert betas[k - 1] == rho(mono(g3, (0, 1, 2) * k))
        assert beta_revs[k - 1] == rho(mono(g3, (1, 0, 2) * k))
        # the two families genuinely differ, and bar exchanges them
        assert betas[k - 1] != beta_revs[k - 1]
        assert betas[k - 1].bar() == beta_revs[k - 1]


def test_solver_checks_kmax_before_any_product(monkeypatch):
    # x_1^k f_{s2} has words of length 3k + 1, so 21 is the largest k the
    # default cap allows; outside 1..21 the solver refuses before it works
    from affinetl import traces

    assert traces.SOLVER_KMAX == 21
    _, betas, beta_revs = solve_alpha_beta(21)
    assert betas[-1] == -ONE / (ONE + Q) ** 63 and beta_revs[-1] == Q ** 63 * betas[-1]

    def refuse(*args):
        raise AssertionError("a product before the kmax check")

    monkeypatch.setattr(traces, "e_multiply", refuse)
    monkeypatch.setattr(traces, "_rho_word", refuse)
    with pytest.raises(LengthLimitExceeded, match="21"):
        solve_alpha_beta(22)
    for kmax in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            solve_alpha_beta(kmax)


def test_solver_makes_no_gcd(monkeypatch):
    from affinetl import morphisms, scalars, traces

    expected = solve_alpha_beta(20)

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd in the solver")

    for cached in (morphisms._gen_images, morphisms._f_image, traces._rho_word,
                   traces._trace_f_word, scalars.qp1_laurent_pow):
        cached.cache_clear()
    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    assert solve_alpha_beta(20) == expected
    with pytest.raises(AssertionError, match="gcd"):
        (ONE + Q) / (ONE + V)  # the patch is live for Q(v) arithmetic


def test_solver_matches_oracle():
    _, betas, beta_revs = solve_alpha_beta(3)
    for k in range(1, 4):
        assert_scalar_equal(betas[k - 1], rho3_oracle((0, 1, 2) * k))
        assert_scalar_equal(beta_revs[k - 1], rho3_oracle((1, 0, 2) * k))


# ---------------------------------------------------------------------------
# the link invariant


def test_invariant_values():
    assert invariant(parse_braid("s1", 2)) == ONE
    assert invariant(parse_braid("a", 2)) == ONE
    assert invariant(parse_braid("s1^-1", 2)) == ONE
    assert_scalar_equal(invariant(parse_braid("s1 s1 s1", 2)), -(Q ** 4) + Q ** 3 + Q)
    assert_scalar_equal(invariant(parse_braid("s1 s1", 2)), -V * (ONE + Q ** 2))
    assert_scalar_equal(invariant(parse_braid("a s1", 2)), -V * (ONE + Q ** 2))
    unlink2 = -(ONE + Q) / V
    assert invariant(parse_braid("", 2)) == unlink2
    assert invariant(parse_braid("a a^-1", 2)) == unlink2


def test_invariant_under_markov_moves(rng):
    for m in (2, 3, 4):
        assert_checks(check_link_invariance(rng, m, 20))
        for _ in range(20):
            b = random_braid(m, rng, 5)
            assert invariant(free_reduce(b)) == invariant(b)


def test_invariant_is_trace_of_image(rng, monkeypatch):
    """The invariant is rho of the braid image, computed as the Jones trace
    of the collapsed classical braid: it needs neither the affine trace of a
    word nor the E-image of one."""
    import affinetl.morphisms as morphisms
    import affinetl.traces as traces

    braids = [random_braid(m, rng, 5) for m in (2, 3, 4, 5, 6) for _ in range(10)]
    want = [rho(braid_image(b)) for b in braids]

    def refuse(*args):
        raise AssertionError("the invariant took the affine route")

    monkeypatch.setattr(traces, "_rho_word", refuse)
    monkeypatch.setattr(morphisms, "_f_image", refuse)
    for b, value in zip(braids, want):
        assert invariant(b) == value, b


# ---------------------------------------------------------------------------
# the integral e-basis kernel against the Q(v) f-basis route


def test_invariant_matches_qv_oracle(rng):
    import qv_oracle

    for m, letters in ((2, 12), (3, 10), (4, 9), (5, 8), (6, 8)):
        for _ in range(6):
            b = random_braid(m, rng, letters)
            assert_element_equal(braid_image(b), qv_oracle.braid_image(b), str(b))
            assert_scalar_equal(invariant(b), qv_oracle.invariant(b), str(b))


def test_traces_match_qv_oracle(rng):
    import qv_oracle

    for n in (1, 2, 3, 4):
        for _ in range(10):
            x = random_element(path(n), rng, 3, 6)
            assert_scalar_equal(jones_trace(x), qv_oracle.jones_trace(x))
    for m in (2, 3, 4):
        for _ in range(10):
            x = random_element(affine(m), rng, 3, 5)
            assert_scalar_equal(rho(x), qv_oracle.jones_trace(qv_oracle.apply_map("E", x)))


def test_word_trace_matches_qv_oracle_on_every_short_path_word():
    import qv_oracle
    from affinetl.traces import _trace_f_word

    words = [(n, w) for n in range(7) for w in enumerate_fc(path(n), 64)]
    assert len(words) == 625
    for n, w in words:
        assert _trace_f_word(n, w).over_qp1_pow(len(w)) == qv_oracle.trace_f_word(n, w), (n, w)


def test_word_trace_of_a_raw_word_is_the_trace_of_its_product(rng):
    # the loop count needs no FC word: a raw word, repeats of the top
    # generator and other non-FC words included, has the trace of its
    # reduced product q^loops (1+q)^squares e_w
    from affinetl.algebra import e_scale, word_product
    from affinetl.traces import _trace_f_word

    raws = [(n, tuple(rng.randrange(n) for _ in range(rng.randint(0, 12))))
            for n in range(1, 10) for _ in range(300)]
    assert sum(not fc_check(path(n), raw) for n, raw in raws) > 1000
    for n, raw in raws:
        loops, squares, w = word_product(path(n), (), raw)
        assert _trace_f_word(n, raw) == e_scale(_trace_f_word(n, w), loops, squares), (n, raw)


def test_braid_pipeline_makes_no_gcd(monkeypatch, rng):
    from affinetl import morphisms, scalars, traces

    braids = [random_braid(m, rng, 7) for m in (2, 3, 4, 5) for _ in range(4)]
    expected = [(braid_image(b), invariant(b)) for b in braids]
    graphs = (affine(2), affine(3), path(3))
    gens = [(style, s, g) for g in graphs for s in range(g.gens)
            for style in ("f", "g", "g_inv", "T", "T_inv")]
    words = [(g, w) for g in graphs for w in enumerate_fc(g, 4)]
    expected_gens = [gen(*args) for args in gens]
    expected_words = [from_g_word(g, w) for g, w in words]

    def no_gcd(a, b):
        raise AssertionError("polynomial gcd on the e-basis route")

    for cached in (morphisms._gen_images, morphisms._f_image, traces._rho_word,
                   traces._trace_f_word, scalars.qp1_laurent_pow):
        cached.cache_clear()
    monkeypatch.setattr(scalars, "_pgcd", no_gcd)
    for b, (image, value) in zip(braids, expected):
        assert braid_image(b) == image
        assert invariant(b) == value
    assert [gen(*args) for args in gens] == expected_gens
    assert [from_g_word(g, w) for g, w in words] == expected_words
    with pytest.raises(AssertionError, match="gcd"):
        (ONE + Q) / (ONE + V)  # the patch is live for Q(v) arithmetic


def test_kernels_never_check_a_letter(monkeypatch, rng):
    # words are checked where they enter; the products, maps and traces
    # below run on cold word caches with the letter check refusing every
    # call (the tower generator images, built once per rank from a checked
    # braid word, stay cached from the expected values)
    from affinetl import CoxeterGraph, E_map, F_map, coxeter, morphisms, traces

    braids = [random_braid(m, rng, 6) for m in (2, 3, 4) for _ in range(3)]
    elements = [random_element(affine(m), rng, 2, 4) for m in (2, 3, 4) for _ in range(3)]
    expected = [(invariant(b),) for b in braids]
    expected += [(rho(x), E_map(x), F_map(x), multiply(x, x)) for x in elements]

    def refuse(self, s):
        raise AssertionError("a kernel checked a letter")

    for cached in (coxeter._tables, morphisms._f_image, traces._rho_word,
                   traces._trace_f_word):
        cached.cache_clear()
    monkeypatch.setattr(CoxeterGraph, "check_letter", refuse)
    got = [(invariant(b),) for b in braids]
    got += [(rho(x), E_map(x), F_map(x), multiply(x, x)) for x in elements]
    assert got == expected
    with pytest.raises(AssertionError, match="checked a letter"):
        gen("f", 0, affine(2))  # the patch is live at the boundary
