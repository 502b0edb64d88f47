"""
Named, seeded check batteries: the one place each identity is written.

Every battery returns a list of (name, ok, detail) results.  One that
samples draws from the ``rng`` it is given and takes its ranks and sample
counts as arguments, so it is fully deterministic for a fixed seed.  The
``verify`` command runs the suites below at small sizes, in about a second;
the test suite calls the same batteries at its own seeds and sizes.
"""
from __future__ import annotations

import itertools
import random
from collections import defaultdict, namedtuple

from .algebra import (
    TLElement,
    chi,
    from_g_word,
    gen,
    multiply,
    psi,
    reduce_letters,
    word_product,
)
from .coxeter import (
    CoxeterGraph,
    _cartier_foata_letters,
    _rightmost_redex,
    _tables,
    affine,
    fc_word,
    path,
)
from .morphisms import BraidWord, E_map, F_map, braid_lift, include, widen
from .scalars import DELTA, ONE, Q, V, Scalar
from .traces import (
    FREE_STRAND_FACTOR,
    TraceParamsTL2,
    _FWD_BASE,
    _REV_BASE,
    _check_kmax,
    build_xz,
    generic_trace2,
    invariant,
    jones_trace,
    rho,
    solve_alpha_beta,
)


CheckResult = namedtuple("CheckResult", "name ok detail", defaults=("",))


SUITES = ("relations", "traces", "markov", "paper-identities")


# ---------------------------------------------------------------------------
# seeded generators shared with the test-suite


def random_scalar(rng: random.Random) -> Scalar:
    num = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 3)))
    den = tuple(rng.randint(-3, 3) for _ in range(rng.randint(1, 2)))
    return Scalar(num if any(num) else (1,), den if any(den) else (1,))


def random_fc_letters(g: CoxeterGraph, rng: random.Random, maxlen: int):
    comm, adj = _tables(g)
    word: tuple = ()
    for _ in range(rng.randrange(maxlen + 1)):
        choices = [s for s in range(g.gens) if _rightmost_redex(comm, adj, word + (s,)) is None]
        if not choices:
            break
        word = word + (rng.choice(choices),)
    return _cartier_foata_letters(g, word)


def random_element(g: CoxeterGraph, rng: random.Random, terms: int = 2,
                   maxlen: int = 5) -> TLElement:
    out = TLElement.zero(g)
    for _ in range(terms):
        out = out + TLElement.monomial(
            g, random_fc_letters(g, rng, maxlen), random_scalar(rng)
        )
    return out


def random_braid(gens: int, rng: random.Random, maxlen: int = 6) -> BraidWord:
    letters = tuple(
        (rng.randrange(gens), rng.choice((1, -1)))
        for _ in range(rng.randrange(maxlen + 1))
    )
    return BraidWord(gens, letters)


def braid_relators(gens: int):
    """Relator words of the affine braid group: commutations and triple
    moves for the tl-adjacent pairs (there are none on 2 strands)."""
    g = affine(gens)
    out = []
    for s in range(gens):
        for t in range(s + 1, gens):
            if g.commutes(s, t):
                out.append(((s, 1), (t, 1), (s, -1), (t, -1)))
            elif g.tl_adjacent(s, t):
                out.append(((s, 1), (t, 1), (s, 1), (t, -1), (s, -1), (t, -1)))
    return out


# ---------------------------------------------------------------------------
# the algebra


def check_relations(g: CoxeterGraph, hom=None) -> list[CheckResult]:
    """The defining relations of the algebra over ``g`` on its
    g-generators, or on their images under the algebra map ``hom``.  On a
    tl-adjacent pair x, y the relation x y x + x y + y x + x + y + 1 = 0
    holds besides the triple move."""
    hom = hom or (lambda x: x)
    one = hom(TLElement.one(g))
    ims = [hom(gen("g", s, g)) for s in range(g.gens)]
    ok_quad = all(multiply(x, x) == x.scale(Q - ONE) + one.scale(Q) for x in ims)
    ok_comm, ok_braid, ok_v = True, True, True
    for s, t in itertools.combinations(range(g.gens), 2):
        x, y = ims[s], ims[t]
        if g.commutes(s, t):
            ok_comm &= multiply(x, y) == multiply(y, x)
        elif g.tl_adjacent(s, t):
            xy, yx = multiply(x, y), multiply(y, x)
            xyx = multiply(xy, x)
            ok_braid &= xyx == multiply(yx, y)
            ok_v &= (xyx + xy + yx + x + y + one).is_zero()
    return [
        CheckResult(f"quadratic[{g}]", ok_quad),
        CheckResult(f"commutation[{g}]", ok_comm),
        CheckResult(f"triple-move[{g}]", ok_braid),
        CheckResult(f"v-vanishing[{g}]", ok_v),
    ]


def _reduce_random(g: CoxeterGraph, letters, rng: random.Random):
    """``reduce_letters`` applying a uniformly random redex at each step.
    The redexes of a word are the rightmost redexes of its ever shorter
    prefixes, since a redex of a prefix is a redex of the whole word."""
    comm, adj = _tables(g)
    word, loops = list(letters), 0
    while True:
        found, end = [], len(word)
        while (hit := _rightmost_redex(comm, adj, word[:end])) is not None:
            found.append(hit)
            end = hit[0]
        if not found:
            return loops, _cartier_foata_letters(g, word)
        j, t = found[-1 - rng.randrange(len(found))]
        del word[j]
        if t is not None:
            del word[t]
            loops += 1


def confluent(x: TLElement, y: TLElement, rng: random.Random) -> bool:
    """Every basis-word pair of x y reduces to the loop count and word of
    the library's left fold, ``word_product``, also by the right fold, by
    one whole-word reduction and by a random redex order."""
    g = x.graph
    ok = True
    for left in x.terms:
        for right in y.terms:
            loops, _, word = word_product(g, left, right)
            folds, folded = 0, right
            for s in reversed(left):
                k, folded = reduce_letters(g, (s,) + folded)
                folds += k
            for k, w in ((folds, folded), reduce_letters(g, left + right),
                         _reduce_random(g, left + right, rng)):
                ok &= (k, w) == (loops, word)
    return ok


def check_products(rng, graphs, samples, terms=2, maxlen=4) -> list[CheckResult]:
    """Associativity on sampled triples, and confluence on their first two
    factors."""
    ok_assoc = ok_conf = True
    for g in graphs:
        for _ in range(samples):
            x, y, z = (random_element(g, rng, terms, maxlen) for _ in range(3))
            ok_assoc &= multiply(multiply(x, y), z) == multiply(x, multiply(y, z))
            ok_conf &= confluent(x, y, rng)
    return [
        CheckResult("associativity[sampled]", ok_assoc),
        CheckResult("confluence[sampled]", ok_conf),
    ]


# ---------------------------------------------------------------------------
# the traces


def check_trace_values() -> list[CheckResult]:
    p1, g3 = path(1), affine(3)
    t1 = gen("T", 0, p1)
    return [
        CheckResult("trace[T]=1", jones_trace(t1) == ONE),
        CheckResult("trace[1]=-(1+q)/v", jones_trace(TLElement.one(p1)) == -(ONE + Q) / V),
        CheckResult(
            "trace[T^3]=trefoil",
            jones_trace(multiply(multiply(t1, t1), t1)) == -(Q ** 4) + Q ** 3 + Q,
        ),
        CheckResult("rho[1]", rho(TLElement.one(g3)) == (ONE + Q) ** 2 / Q),
        CheckResult("rho[f_s1]", rho(TLElement.monomial(g3, (0,))) == ONE),
        CheckResult("rho[f_s1s2]", rho(TLElement.monomial(g3, (0, 1))) == Q / (ONE + Q) ** 2),
    ]


def check_rho_symmetry(rng, ranks, samples) -> list[CheckResult]:
    ok = True
    for m in ranks:
        g = affine(m)
        for _ in range(samples):
            x, y = random_element(g, rng, 2, 4), random_element(g, rng, 2, 4)
            ok &= rho(multiply(x, y)) == rho(multiply(y, x))
    return [CheckResult("rho-symmetry[sampled]", ok)]


def check_classical_markov(rng, ranks, samples, styles=("T",)) -> list[CheckResult]:
    """tr(b T c) = tr(b c) for b, c one rank down, with the top generator
    T taken in each of ``styles``."""
    ok = True
    for n in ranks:
        g, sub = path(n), path(n - 1)
        for _ in range(samples):
            b0, c0 = random_element(sub, rng, 2, 4), random_element(sub, rng, 2, 4)
            b, c = widen(b0, n), widen(c0, n)
            base = jones_trace(multiply(b0, c0))
            for style in styles:
                ok &= jones_trace(multiply(multiply(b, gen(style, n - 1, g)), c)) == base
    return [CheckResult("classical-markov[sampled]", ok)]


def check_generic_trace2(rng, samples, maxlen=6) -> list[CheckResult]:
    """The rank-2 functional is a trace for random parameter values."""
    g2 = affine(2)
    # alpha draws its value for a length when that length is first met
    alpha = defaultdict(lambda: random_scalar(rng)).__getitem__
    params = TraceParamsTL2(random_scalar(rng), random_scalar(rng), alpha)
    ok = True
    for _ in range(samples):
        x, y = random_element(g2, rng, 2, maxlen), random_element(g2, rng, 2, maxlen)
        ok &= generic_trace2(params, multiply(x, y)) == generic_trace2(
            params, multiply(y, x)
        )
    return [CheckResult("rank2-generic-trace[sampled]", ok)]


# ---------------------------------------------------------------------------
# the Markov conditions and the link invariant


def check_markov(rng, m: int, samples) -> list[CheckResult]:
    """rho at rank m against the tower step: both stabilizations, the
    free-strand dilation, and invariance under the cycle rotation."""
    tgt = affine(m + 1)
    t_plus, t_minus = gen("T", m - 1, tgt), gen("T_inv", m - 1, tgt)
    ok_plus = ok_minus = ok_dilation = ok_psi = True
    for _ in range(samples):
        h = random_element(affine(m), rng, 2, 4)
        fh, base = F_map(h), rho(h)
        ok_plus &= rho(multiply(fh, t_plus)) == base
        ok_minus &= rho(multiply(fh, t_minus)) == base
        ok_dilation &= rho(fh) == FREE_STRAND_FACTOR * base
        ok_psi &= rho(psi(h)) == base
    return [
        CheckResult(f"stabilization+[rank {m}]", ok_plus),
        CheckResult(f"stabilization-[rank {m}]", ok_minus),
        CheckResult(f"free-strand-dilation[rank {m}]", ok_dilation),
        CheckResult(f"rotation-invariance[rank {m}]", ok_psi),
    ]


def check_link_invariance(rng, m: int, samples) -> list[CheckResult]:
    """The invariant is unchanged by conjugation, an inserted relator and
    both stabilizations of a lifted braid."""
    rels = braid_relators(m)
    ok = True
    for _ in range(samples):
        b = random_braid(m, rng, 5)
        base = invariant(b)
        w = random_braid(m, rng, 3)
        ok &= invariant(w * b * w.inverse()) == base
        if rels:
            r = rng.choice(rels)
            cut = rng.randrange(len(b.letters) + 1)
            ok &= invariant(BraidWord(m, b.letters[:cut] + r + b.letters[cut:])) == base
        lifted = braid_lift(b)
        for e in (1, -1):
            ok &= invariant(BraidWord(m + 1, lifted.letters + ((m, e),))) == base
    return [CheckResult(f"link-invariance[rank {m}]", ok)]


# ---------------------------------------------------------------------------
# the rank-3 product identities and the tower


def _mono3(letters, c=ONE) -> TLElement:
    return TLElement.monomial(affine(3), letters, c)


def check_orbit_products(pairs) -> list[CheckResult]:
    """For each (h, k): the products rev^k fwd^h and fwd^h rev^k of the
    rank-3 orbit words collapse to one word times a power of DELTA."""
    ok = True
    for h, k in pairs:
        lhs = multiply(_mono3(_REV_BASE * k), _mono3(_FWD_BASE * h))
        if h < k:
            ok &= lhs == _mono3(_REV_BASE * (k - h), DELTA ** (3 * h))
        else:
            ok &= lhs == _mono3((1, 2) + _FWD_BASE * (h - k), DELTA ** (3 * k - 1))
        lhs2 = multiply(_mono3(_FWD_BASE * h), _mono3(_REV_BASE * k))
        if h > k:
            ok &= lhs2 == _mono3(_FWD_BASE * (h - k), DELTA ** (3 * k))
        else:
            ok &= lhs2 == _mono3((0, 2) + _REV_BASE * (k - h), DELTA ** (3 * h - 1))
    return [CheckResult("orbit-power-products", ok)]


def check_xz(imax: int) -> list[CheckResult]:
    """The closed forms of x_1 f_2 and f_2 z_1, the recurrence of x_1 x_i
    and chi(x_i) = z_i, for i <= imax."""
    x1, z1 = build_xz(1)
    f2 = _mono3((1,))
    ok_rec = multiply(x1, x1) == x1.scale(3 * DELTA) + build_xz(2)[0]
    ok_chi = True
    for i in range(1, imax + 1):
        xi, zi = build_xz(i)
        ok_chi &= chi(xi) == zi
        if i >= 2:
            xprev, xnext = build_xz(i - 1)[0], build_xz(i + 1)[0]
            ok_rec &= multiply(x1, xi) == xprev.scale(DELTA ** 2) + xi.scale(2 * DELTA) + xnext
    return [
        CheckResult(
            "x1*f2 closed form",
            multiply(x1, f2) == _mono3((0, 2, 1), -ONE / Q) + _mono3((0, 1), ONE / (ONE + Q)),
        ),
        CheckResult(
            "f2*z1 closed form",
            multiply(f2, z1) == _mono3((1, 2, 0), -Q) + _mono3((1, 0), Q / (ONE + Q)),
        ),
        CheckResult("x-recurrence", ok_rec),
        CheckResult("chi(x)=z", ok_chi),
    ]


def check_solver(kmax: int) -> list[CheckResult]:
    """The values of ``solve_alpha_beta(kmax)``: the closed forms of the
    alphas, beta_1 and beta'_1, and every beta_k and beta'_k against the
    direct rho of its basis word."""
    try:
        alphas, betas, beta_revs = solve_alpha_beta(kmax)
    except Exception as exc:  # a crashed solver fails this check by name
        return [CheckResult("alpha-beta-solver", False, repr(exc))]
    ok = all(a == -V / (ONE + Q) for a in alphas)
    ok &= betas[0] == -ONE / (ONE + Q) ** 3 and beta_revs[0] == -(Q ** 3) / (ONE + Q) ** 3
    for k, (beta, beta_rev) in enumerate(zip(betas, beta_revs), start=1):
        ok &= beta == rho(_mono3(_FWD_BASE * k)) and beta_rev == rho(_mono3(_REV_BASE * k))
    return [CheckResult("alpha-beta-solver", ok)]


def check_tower(rng, ranks, samples, maxlen=4) -> list[CheckResult]:
    """E is a section of the inclusion one rank down, and E F equals the
    widened E on the g-generators and on sampled elements of each rank."""
    ok_section = ok_square = True
    for m in ranks:
        src = affine(m)
        for s in range(m):
            x = gen("g", s, src)
            ok_square &= E_map(F_map(x)) == widen(E_map(x), m)
        for _ in range(samples):
            x = random_element(path(m - 1), rng, 2, maxlen)
            ok_section &= E_map(include(x)) == x
            y = random_element(src, rng, 2, maxlen)
            ok_square &= E_map(F_map(y)) == widen(E_map(y), m)
    return [
        CheckResult("collapse-of-inclusion=id", ok_section),
        CheckResult("tower-square-commutes", ok_square),
    ]


def check_twist(ranks) -> list[CheckResult]:
    """c F(g_s) = F(g_(s-1)) c at each rank m, for the g-word c of the
    descending word s(m-1) ... s1 a."""
    ok = True
    for m in ranks:
        src, tgt = affine(m - 1), affine(m)
        c = from_g_word(tgt, fc_word(tgt, tuple(range(m - 2, -1, -1)) + (m - 1,)))
        for s in range(m - 1):
            lhs = multiply(c, F_map(gen("g", s, src)))
            rhs = multiply(F_map(gen("g", (s - 1) % (m - 1), src)), c)
            ok &= lhs == rhs
    return [CheckResult("twist-conjugation", ok)]


def run_suite(suite: str, seed: int, gens: int = 4, kmax: int = 3) -> list[CheckResult]:
    """One suite at the command's sizes, or all of them in the order of
    SUITES; each suite draws from its own ``Random(seed)``."""
    if gens < 2:
        raise ValueError(f"gens must be at least 2, not {gens}")
    _check_kmax(kmax)
    if suite == "all":
        return [r for name in SUITES for r in run_suite(name, seed, gens, kmax)]
    if suite not in SUITES:
        raise ValueError(f"unknown suite {suite!r}")
    rng = random.Random(seed)
    ranks = range(2, gens + 1)
    try:
        if suite == "relations":
            graphs = [affine(m) for m in ranks] + [path(n) for n in range(1, gens)]
            return [r for g in graphs for r in check_relations(g)] + check_products(
                rng, [affine(m) for m in (2, 3, 4)], 20
            )
        if suite == "traces":
            return (check_trace_values() + check_rho_symmetry(rng, ranks, 20)
                    + check_classical_markov(rng, ranks, 15) + check_generic_trace2(rng, 25))
        if suite == "markov":
            return [r for m in range(2, min(gens, 4) + 1)
                    for r in check_markov(rng, m, 20) + check_link_invariance(rng, m, 10)]
        return (check_orbit_products(itertools.product(range(1, 4), repeat=2)) + check_xz(4)
                + check_solver(kmax) + check_tower(rng, ranks, 10)
                + check_twist(range(3, gens + 2)))
    except Exception as exc:  # a crashed battery is a failed check, not a crash
        return [CheckResult(f"{suite}[error]", False, repr(exc))]
