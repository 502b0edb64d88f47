"""
Tests of the benchmark's own checks, negative controls included: a wrong
result must count as a failed op.

    python3 -m pytest -q bench/test_bench.py
"""
from __future__ import annotations

import json
import os
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import oracles  # noqa: E402
import run  # noqa: E402
from child import _runner  # noqa: E402
from workloads import WORKLOADS, op_input  # noqa: E402


def _real_op(workload, seed, index):
    code, text = _runner(workload)(op_input(workload, seed, index))
    return {"seconds": 0.0, "code": code, "text": text, "error": None}


def test_inputs_repeat_per_seed_differ_between_seeds_and_keep_their_shape():
    a = [op_input("inv-r3", 1, i) for i in range(5)]
    assert a == [op_input("inv-r3", 1, i) for i in range(5)]
    assert a != [op_input("inv-r3", 2, i) for i in range(5)]
    for name in ("inv-r3", "inv-r7"):
        w = WORKLOADS[name]
        for i in range(20):
            letters = op_input(name, 0, i).split()
            assert len(letters) == w.letters and letters[0] in ("a", "a^-1")
            assert sum(t in ("a", "a^-1") for t in letters) == w.wraps
            assert {t.partition("^")[0] for t in letters} >= {f"s{k}" for k in range(1, w.gens)}


def test_parse_rational_reads_printed_values():
    assert oracles.parse_rational("-v^8+v^6+v^2") == ({8: -1, 6: 1, 2: 1}, {0: 1})
    assert oracles.parse_rational("(v^6+v^4+1)/(v^6)") == ({6: 1, 4: 1, 0: 1}, {6: 1})
    assert oracles.parse_rational("-v/(v^2+1)") == ({1: -1}, {2: 1, 0: 1})
    assert oracles.parse_rational("3*v^2-7") == ({2: 3, 0: -7}, {0: 1})
    for bad in ("", "3v", "v^2v", "1/v^2", "v^"):
        with pytest.raises(ValueError):
            oracles.parse_rational(bad)


def test_braid_cycles():
    assert oracles.braid_cycles("s1 s1 s1", 2) == 1
    assert oracles.braid_cycles("s1 s1^-1", 3) == 3
    assert oracles.braid_cycles("a", 3) == 2
    assert oracles.braid_cycles("s1 s2", 3) == 1


def test_invariant_oracle_rejects_a_perturbed_value():
    assert oracles.check_invariant("s1 s1 s1", 2, "-v^8+v^6+v^2")
    assert not oracles.check_invariant("s1 s1 s1", 2, "-v^8+v^6+2*v^2")
    assert not oracles.check_invariant("s1 s1", 2, "-v^8+v^6+v^2")
    # right for a two-component closure at v = 1, wrong at v = e^(i pi/3)
    assert oracles.check_invariant("s1 s1", 2, "-v^5-v")
    assert not oracles.check_invariant("s1 s1", 2, "-v^4-1")


def test_perturbed_invariant_output_is_a_failed_op():
    digests = run.load_digests()
    for index in range(20):  # the first op whose value is a polynomial
        op = _real_op("inv-r3", 0, index)
        if "/" not in op["text"]:
            break
    braid, value = op_input("inv-r3", 0, index), op["text"].strip()
    assert run.check_op("inv-r3", 0, index, op, digests)
    # a changed value at v = 1: the oracle catches it
    assert not run.check_op("inv-r3", 0, index, dict(op, text=value + "+1\n"), digests)
    # the same values at v = 1 and v = e^(i pi/3): only the recorded digest
    # catches it (v^7 - v = v (v^6 - 1) vanishes at both points)
    subtle = value + "+v^7-v"
    assert oracles.check_invariant(braid, 3, subtle)
    assert not run.check_op("inv-r3", 0, index, dict(op, text=subtle + "\n"), digests)
    # a factor v^2 keeps the value at v = 1 only: the oracle catches it
    shifted = oracles.poly_mul(oracles.parse_poly(value), {2: 1})
    text = "+".join(f"{c}*v^{k}" for k, c in shifted.items()).replace("+-", "-")
    assert not oracles.check_invariant(braid, 3, text)
    assert not run.check_op("inv-r3", 0, index, dict(op, code=2), digests)
    crashed = dict(op, text=None, error="RuntimeError()")
    assert not run.check_op("inv-r3", 0, index, crashed, digests)


def test_solve_oracle_rejects_a_perturbed_value():
    from affinetl import solve_alpha_beta

    alphas, betas, beta_revs = solve_alpha_beta(3)
    values = [str(x) for x in alphas + betas + beta_revs]
    assert oracles.check_solve("\n".join(values), 3)
    values[4] = values[5]
    assert not oracles.check_solve("\n".join(values), 3)


def test_verify_oracle_needs_every_check_ok():
    assert oracles.check_verify('{"ok": true, "checks": [{"name": "x", "ok": true}]}')
    assert not oracles.check_verify('{"ok": true, "checks": [{"name": "x", "ok": false}]}')
    assert not oracles.check_verify('{"ok": false, "checks": [{"name": "x", "ok": true}]}')


def test_a_failed_op_fails_the_run(monkeypatch, capsys):
    def crashed_child(workload, seed, batch, started, trace=False, spans_path=None):
        ops = [{"seconds": 0.01, "code": None, "text": None, "error": "RuntimeError()"}]
        return {"setup_s": 0.1, "timed_s": 0.01, "peak_rss_mb": 20.0, "ops": ops}

    monkeypatch.setattr(run, "run_child", crashed_child)
    assert run.main(["--workload", "solve-k20", "--seed", "0", "--seconds", "0.001"]) == 1
    last = capsys.readouterr().out.splitlines()[-1]
    assert '"correct": false' in last and '"failed": 1' in last


def test_printed_metrics_match_benchmark_json(capsys):
    with open(os.path.join(os.path.dirname(BENCH), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        argv = ["--workload", "inv-r7", "--seed", "0", "--seconds", "0.1", "--trace", str(trace)]
        assert run.main(argv) == 0
        result = json.loads(capsys.readouterr().out.splitlines()[-1])
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        printed = {name: m["unit"] for name, m in result["metrics"].items()}
        assert printed == {m["name"]: m["unit"] for m in spec[key]}


def test_traced_counts_repeat_exactly():
    runs = [run.run_child("inv-r7", 3, 0, time.monotonic(), trace=True)["per_layer"]
            for _ in range(2)]
    counts = [{n: v for n, v in r.items() if not n.endswith("self_s")} for r in runs]
    assert counts[0] == counts[1]
    assert counts[0]["algebra.multiply.calls"] > 0 and counts[0]["traces.rho_word.size"] > 0
