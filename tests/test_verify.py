"""The check batteries of ``verify``: which checks the command runs, and
that the batteries the tests rely on do report a broken identity."""
import json
import random

import pytest

from affinetl import affine, algebra, morphisms, traces, verify
from affinetl.cli import main
from affinetl.scalars import L_ONE, Laurent

RELATIONS = ("quadratic", "commutation", "triple-move", "v-vanishing")
GRAPHS = [f"affine-cycle({m})" for m in (2, 3, 4)] + [f"type-a-path({n})" for n in (1, 2, 3)]
MARKOV = ("stabilization+", "stabilization-", "free-strand-dilation", "rotation-invariance",
          "link-invariance")
# every check of `verify --suite all` at the default --gens 4, in order
ALL_CHECKS = (
    [f"{rel}[{g}]" for g in GRAPHS for rel in RELATIONS]
    + ["associativity[sampled]", "confluence[sampled]"]
    + ["trace[T]=1", "trace[1]=-(1+q)/v", "trace[T^3]=trefoil", "rho[1]", "rho[f_s1]",
       "rho[f_s1s2]", "rho-symmetry[sampled]", "classical-markov[sampled]",
       "rank2-generic-trace[sampled]"]
    + [f"{check}[rank {m}]" for m in (2, 3, 4) for check in MARKOV]
    + ["orbit-power-products", "x1*f2 closed form", "f2*z1 closed form", "x-recurrence",
       "chi(x)=z", "alpha-beta-solver", "collapse-of-inclusion=id", "tower-square-commutes",
       "twist-conjugation"]
)


def test_verify_all_runs_the_pinned_checks(capsys):
    assert main(["verify", "--suite", "all", "--format", "json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert [c["name"] for c in payload["checks"]] == ALL_CHECKS
    assert len(ALL_CHECKS) == 59 and payload["ok"] is True


def _clear_word_caches():
    for cached in (morphisms._gen_images, morphisms._f_image, traces._trace_f_word,
                   traces._rho_word):
        cached.cache_clear()


def test_batteries_report_a_wrong_letter_sign(monkeypatch):
    trace_f_word = traces._trace_f_word

    def wrong(n, letters):  # the trace as if e_s were -v U_s, not v U_s
        value = trace_f_word(n, letters)
        return -value if len(letters) % 2 else value

    _clear_word_caches()
    monkeypatch.setattr(traces, "_trace_f_word", wrong)
    try:
        failed = {r.name for r in verify.run_suite("all", 0) if not r.ok}
        markov = verify.check_markov(random.Random(1), 3, 5)
    finally:
        monkeypatch.undo()
        _clear_word_caches()
    assert {"trace[T]=1", "classical-markov[sampled]", "rho-symmetry[sampled]",
            "alpha-beta-solver"} <= failed
    assert {f"{check}[rank {m}]" for m in (2, 3, 4)
            for check in ("stabilization+", "stabilization-", "link-invariance")} <= failed
    assert not any(name.startswith(RELATIONS) for name in failed)
    assert [r.ok for r in markov] == [False, False, True, False]


# each generator of the e-basis table with the sign of its constant term
# flipped, and checks that must then fail
@pytest.mark.parametrize("key, wrong, fails", [
    (("g", 1), (L_ONE, L_ONE),
     {f"{rel}[affine-cycle(3)]" for rel in ("quadratic", "triple-move", "v-vanishing")}),
    (("g", -1), (Laurent(-2, (1,)), L_ONE),
     {"rho-symmetry[sampled]", "stabilization+[rank 3]", "stabilization-[rank 3]"}),
    (("T", 1), (Laurent(1, (1,)), Laurent(1, (1,))), {"trace[T]=1", "stabilization+[rank 3]"}),
    (("T", -1), (Laurent(-3, (1,)), Laurent(-1, (1,))),
     {"stabilization-[rank 3]", "link-invariance[rank 3]"}),
], ids=["g", "g_inv", "T", "T_inv"])
def test_batteries_report_a_wrong_generator(monkeypatch, key, wrong, fails):
    _clear_word_caches()
    monkeypatch.setitem(algebra.E_GENERATORS, key, wrong)
    try:
        failed = {r.name for r in verify.run_suite("all", 0) if not r.ok}
    finally:
        monkeypatch.undo()
        _clear_word_caches()
    assert fails <= failed


def test_solver_battery_reports_a_wrong_long_word_value(monkeypatch):
    solve = verify.solve_alpha_beta

    def wrong(kmax):  # beta'_k doubled for k >= 2; the closed forms still hold
        alphas, betas, beta_revs = solve(kmax)
        return alphas, betas, beta_revs[:1] + [2 * b for b in beta_revs[1:]]

    assert verify.check_solver(3)[0].ok
    monkeypatch.setattr(verify, "solve_alpha_beta", wrong)
    assert not verify.check_solver(3)[0].ok


def test_confluence_battery_reports_a_lost_loop_factor(monkeypatch):
    reduce_letters = verify.reduce_letters
    monkeypatch.setattr(verify, "reduce_letters",
                        lambda g, letters: (0, reduce_letters(g, letters)[1]))
    results = verify.check_products(random.Random(0), [affine(3)], 20)
    assert [(r.name, r.ok) for r in results] == [
        ("associativity[sampled]", True), ("confluence[sampled]", False)]
