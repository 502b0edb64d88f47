"""Acceptance suite.

Each test implements one numbered exit criterion at its stated scale and
prints a single PASS line when it holds.  Everything is exact rational
arithmetic; the final criterion re-verifies the core identities numerically
at sample rational points to guard the coefficient kernel itself.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""
import itertools
import random
from collections import Counter
from fractions import Fraction


from affinetl import (
    DELTA,
    ONE,
    Q,
    V,
    F_map,
    Scalar,
    TLElement,
    affine,
    build_xz,
    enumerate_fc,
    gen,
    invariant,
    jones_trace,
    multiply,
    parse_braid,
    path,
    rho,
    solve_alpha_beta,
)
from affinetl.verify import (
    check_classical_markov,
    check_link_invariance,
    check_markov,
    check_orbit_products,
    check_products,
    check_relations,
    check_rho_symmetry,
    check_solver,
    check_tower,
    check_trace_values,
    check_twist,
    check_xz,
    confluent,
    random_braid,
    random_element,
    random_fc_letters,
)

from conftest import assert_checks, assert_scalar_equal, free_reduce
from test_coxeter import apply_word, avoids_321, inversions
from test_traces import rho3_oracle, t_power_trace


def note(cid, text):
    print(f"\nACCEPTANCE {cid}: PASS - {text}")


def mono(g, letters, c=ONE):
    return TLElement.monomial(g, letters, c)


# ---------------------------------------------------------------------------


def test_c01_defining_relations():
    graphs = [affine(m) for m in (2, 3, 4, 5)] + [path(n) for n in (1, 2, 3, 4)]
    for g in graphs:
        assert_checks(check_relations(g))
    note(1, "defining relations hold exactly on affine ranks 2-5 and classical 1-4")


def test_c02_basis_dimension_oracle():
    for n, total in ((1, 2), (2, 5), (3, 14), (4, 42)):
        words = enumerate_fc(path(n), n * (n + 1) // 2)
        assert len(words) == total
        seen = {}
        for w in words:
            p = apply_word(n + 1, w)
            assert inversions(p) == len(w)
            assert avoids_321(p)
            assert p not in seen
            seen[p] = w
        oracle = {p for p in itertools.permutations(range(n + 1)) if avoids_321(p)}
        assert set(seen) == oracle
    counts = Counter(len(w) for w in enumerate_fc(affine(3), 10))
    assert [counts[i] for i in range(11)] == [1, 3] + [6] * 9
    note(2, "classical bases match the 321-avoiding oracle; affine rank-3 counts are 1,3,6,6,...")


def test_c03_confluence_and_associativity():
    rng = random.Random(303)
    ranks = [affine(2), affine(3), affine(4), path(2), path(3), path(4)]
    products = 0
    for g in ranks:
        for _ in range(1000):
            x = mono(g, random_fc_letters(g, rng, 12))
            y = mono(g, random_fc_letters(g, rng, 12))
            assert confluent(x, y, rng)
            products += 1
    assert_checks(check_products(rng, [affine(2), affine(3), affine(4)], 334, 2, 6))
    note(3, f"{products} seeded products agree across strategies; associativity on {3 * 334} triples")


def test_c04_orbit_power_product_sweep():
    assert_checks(check_orbit_products(itertools.product(range(1, 6), repeat=2)))
    note(4, "all 50 orbit-power product identities hold exactly for h,k <= 5")


def test_c05_classical_trace():
    p1 = path(1)
    t = gen("T", 0, p1)
    assert_checks(check_trace_values())
    assert_scalar_equal(jones_trace(multiply(t, t)), -V * (ONE + Q ** 2), "hopf")
    assert jones_trace(multiply(multiply(t, t), t)) == t_power_trace(3)
    assert_checks(check_classical_markov(random.Random(505), (2, 3, 4), 170))
    note(5, f"classical trace values frozen and the Markov identity holds on {3 * 170} seeded pairs")


def test_c06_affine_trace():
    assert_checks(check_trace_values())
    rng = random.Random(606)
    for m in (2, 3, 4):
        assert_checks(check_markov(rng, m, 500) + check_rho_symmetry(rng, (m,), 500))
    note(6, f"trace symmetry, rotation invariance and both Markov conditions on {3 * 500} seeded elements")


def test_c07_xz_machinery_and_solver():
    g3 = affine(3)
    assert_checks(check_xz(6) + check_solver(4))
    _, betas, beta_revs = solve_alpha_beta(4)
    for k in range(1, 5):
        assert betas[k - 1] == rho(mono(g3, (0, 1, 2) * k))
        assert beta_revs[k - 1] == rho(mono(g3, (1, 0, 2) * k))
        assert betas[k - 1] == rho3_oracle((0, 1, 2) * k)
        assert beta_revs[k - 1] == rho3_oracle((1, 0, 2) * k)
    note(7, "closed forms, chi-symmetry, recurrences, and solver values equal direct trace evaluations")


def test_c08_tower_coherence():
    rng = random.Random(808)
    for m in (3, 4, 5):
        assert_checks(check_tower(rng, (m,), 25) + check_twist((m,)))
        if m >= 4:
            gtop = gen("g", m - 2, affine(m))
            for s in range(m - 2):
                img = F_map(F_map(gen("g", s, affine(m - 2))))
                assert multiply(gtop, img) == multiply(img, gtop)
    note(8, "inclusion sections, tower squares, twist conjugation and double-image commutation for ranks 3-5")


def test_c09_link_invariance():
    rng = random.Random(909)
    for m in (2, 3, 4):
        assert_checks(check_link_invariance(rng, m, 200))
        for _ in range(200):
            b = random_braid(m, rng, 5)
            assert invariant(free_reduce(b)) == invariant(b)
    assert invariant(parse_braid("s1", 2)) == ONE
    assert invariant(parse_braid("a", 2)) == ONE
    unlink2 = -(ONE + Q) / V
    assert invariant(parse_braid("", 2)) == unlink2
    assert invariant(parse_braid("s1 s1^-1", 2)) == unlink2
    note(9, f"invariant unchanged under relators, reduction, conjugation and both stabilizations on {3 * 200} words")


def test_c10_numeric_cross_check():
    rng = random.Random(1010)
    points = []
    while len(points) < 5:
        x = Fraction(rng.randint(1, 40), rng.randint(1, 40)) * rng.choice((1, -1))
        if x not in (0,) and x not in points:
            points.append(x)

    def same(a: Scalar, b: Scalar, label):
        assert a == b, label
        for v0 in points:
            try:
                ea, eb = a.eval_at(v0), b.eval_at(v0)
            except ZeroDivisionError:
                continue
            assert ea == eb, f"{label} at v={v0}"

    g3 = affine(3)
    p1 = path(1)
    t = gen("T", 0, p1)
    same(jones_trace(multiply(multiply(t, t), t)), -(Q ** 4) + Q ** 3 + Q, "trefoil")
    same(jones_trace(multiply(t, t)), -V * (ONE + Q ** 2), "hopf")
    same(rho(TLElement.one(g3)), (ONE + Q) ** 2 / Q, "B0")
    same(rho(mono(g3, (0,))), ONE, "B1")
    same(rho(mono(g3, (0, 1))), Q / (ONE + Q) ** 2, "B2")
    same(rho(mono(g3, (0, 2, 1))), -(Q ** 3) / (ONE + Q) ** 3, "beta'_1")
    same(rho(mono(g3, (1, 2, 0))), -ONE / (ONE + Q) ** 3, "beta_1")
    same(invariant(parse_braid("s1 s1 s1", 2)), -(Q ** 4) + Q ** 3 + Q, "trefoil closure")
    # identity batteries re-run through pointwise evaluation
    x1, z1 = build_xz(1)
    f2 = mono(g3, (1,))
    for elem, expected, label in (
        (multiply(x1, f2), mono(g3, (0, 2, 1), -ONE / Q) + mono(g3, (0, 1), ONE / (ONE + Q)), "x1f2"),
        (multiply(f2, z1), mono(g3, (1, 2, 0), -Q) + mono(g3, (1, 0), Q / (ONE + Q)), "f2z1"),
        (multiply(x1, x1), x1.scale(3 * DELTA) + build_xz(2)[0], "square"),
    ):
        keys = set(elem.terms) | set(expected.terms)
        for w in keys:
            same(
                elem.terms.get(w, Scalar(())),
                expected.terms.get(w, Scalar(())),
                f"{label}[{w}]",
            )
    rng2 = random.Random(42)
    for m in (2, 3):
        g = affine(m)
        for _ in range(20):
            x, y = random_element(g, rng2, 2, 4), random_element(g, rng2, 2, 4)
            same(rho(multiply(x, y)), rho(multiply(y, x)), "symmetry")
    note(10, "exact identities re-verified by rational evaluation at 5 sample points")
