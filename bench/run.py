"""
Benchmark of affinetl: seeded workloads run in fresh child processes, every
result checked, every metric printed by name with its unit.

    python3 bench/run.py --workload inv-r3 --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its ``src``.
With ``--trace 0`` the workload's op stream runs batch after batch, each in
a fresh child, until ``--seconds`` of timed ops have passed, and the
end-to-end metrics are reported.  With ``--trace 1`` the first
``TRACE_BATCHES`` batches run once untraced and once traced, and the
per-layer metrics of the traced children are reported with
``trace_overhead``; this run has a fixed size, so its counts repeat exactly,
and it leaves its spans in ``.bench_out/``.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 0 only if every op passed its checks.

Each op is checked after its child has ended: an exception, a nonzero exit
code from the CLI, a failed oracle (``oracles.py``) or, for the seeds and ops
recorded in ``digests.json``, a different digest of the output text counts
as a failed op.
"""
from __future__ import annotations

import argparse
import json
import operator
import os
import statistics
import subprocess
import sys
import time

import oracles
import spans
from workloads import SOLVE_K, WORKLOADS, op_input

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
DIGESTS = os.path.join(BENCH, "digests.json")
OUT = os.path.join(ROOT, ".bench_out")
# every child is stopped by this many seconds after the run started
DEADLINE_S = 170
# a later batch is not started once the run has lasted this long
RUN_LIMIT_S = 120
# the traced run's fixed size, and the ops whose digests are recorded
TRACE_BATCHES = 4


def run_child(workload: str, seed: int, batch: int, started: float, trace: bool = False,
              spans_path=None) -> dict:
    """Run one batch in a fresh child; ``started`` is the ``time.monotonic()``
    at which the whole run began."""
    spec = {"workload": workload, "seed": seed, "batch": batch, "trace": trace,
            "spans_path": spans_path}
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    spec["spawned"] = time.monotonic()
    with subprocess.Popen(
        # -S: no site-packages hooks, whose start-up cost belongs to the host
        [sys.executable, "-S", "-s", os.path.join(BENCH, "child.py"), json.dumps(spec)],
        cwd=ROOT, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    ) as proc:
        timeout = max(1.0, DEADLINE_S - (time.monotonic() - started))
        try:
            out, err = proc.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise RuntimeError(f"{workload} batch {batch} timed out") from None
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} batch {batch} child exited {proc.returncode}:\n{err}")
    return json.loads(out.splitlines()[-1])


def check_op(workload: str, seed: int, index: int, op: dict, digests: dict) -> bool:
    """Whether op ``index`` of the stream ran cleanly, passed its oracle and,
    where one is recorded, matched its digest."""
    if op["error"] is not None or op["code"] != 0:
        return False
    text = op["text"]
    arg = op_input(workload, seed, index)
    try:
        w = WORKLOADS[workload]
        if w.gens:
            lines = text.splitlines()
            ok = len(lines) == 1 and oracles.check_invariant(arg, w.gens, lines[0])
        elif workload == "verify-all":
            ok = oracles.check_verify(text)
        else:
            ok = oracles.check_solve(text, SOLVE_K)
    except (ValueError, KeyError, TypeError):
        ok = False
    recorded = digests.get(f"{workload}/{seed}", [])
    if index < len(recorded) and oracles.digest(text) != recorded[index]:
        ok = False
    return ok


def check_batch(workload, seed, batch, record, digests) -> int:
    """Failed ops of one child's record."""
    first = batch * WORKLOADS[workload].batch
    return sum(
        not check_op(workload, seed, first + i, op, digests) for i, op in enumerate(record["ops"])
    )


def load_digests() -> dict:
    with open(DIGESTS) as fh:
        return json.load(fh)


def end_to_end(workload, seed, seconds, digests, started):
    records, failed = [], 0
    timed = 0.0
    batch = 0
    while timed < seconds and time.monotonic() - started < RUN_LIMIT_S:
        rec = run_child(workload, seed, batch, started)
        failed += check_batch(workload, seed, batch, rec, digests)
        records.append(rec)
        timed += rec["timed_s"]
        batch += 1
    lat = [op["seconds"] for rec in records for op in rec["ops"]]
    metrics = {
        "setup_s": (statistics.median(r["setup_s"] for r in records), "s"),
        "ops_per_s": (len(lat) / timed, "ops/s"),
        "op_p50_ms": (statistics.median(lat) * 1000, "ms"),
        "peak_rss_mb": (max(r["peak_rss_mb"] for r in records), "MiB"),
    }
    extra = {"error_rate": (failed / len(lat), "ratio")}
    if len(lat) >= 100:  # at least ten samples lie beyond the 90th percentile
        extra["op_p90_ms"] = (statistics.quantiles(lat, n=10)[-1] * 1000, "ms")
    notes = f"{len(records)} children, {len(lat)} ops, {timed:.1f} s timed"
    return len(lat), failed, metrics, extra, notes


def per_layer(workload, seed, digests, started):
    """Batches 0 .. TRACE_BATCHES-1, each run untraced and then traced."""
    os.makedirs(OUT, exist_ok=True)
    layers: dict = {}
    attempted = failed = 0
    plain_s = traced_s = 0.0
    for batch in range(TRACE_BATCHES):
        spans_path = os.path.join(OUT, f"spans-{workload}-batch{batch}.json.gz")
        plain = run_child(workload, seed, batch, started)
        traced = run_child(workload, seed, batch, started, trace=True, spans_path=spans_path)
        for rec in (plain, traced):
            attempted += len(rec["ops"])
            failed += check_batch(workload, seed, batch, rec, digests)
        plain_s += plain["timed_s"]
        traced_s += traced["timed_s"]
        for name, value in traced["per_layer"].items():
            merge = max if name in spans.PEAKS else operator.add
            layers[name] = merge(layers[name], value) if name in layers else value
    metrics = {
        name: (value, "s" if name.endswith("self_s") else "count") for name, value in layers.items()
    }
    metrics["trace_overhead"] = (traced_s / plain_s, "ratio")
    notes = (f"batches 0-{TRACE_BATCHES - 1} untraced and traced, {attempted} ops, "
             f"spans in {os.path.relpath(OUT, ROOT)}")
    return attempted, failed, metrics, {"error_rate": (failed / attempted, "ratio")}, notes


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    started = time.monotonic()
    if not os.path.isfile(os.path.join(ROOT, "src", "affinetl", "__init__.py")):
        print(f"no affinetl sources under {ROOT}/src", file=sys.stderr)
        return 2
    digests = load_digests()
    if args.trace:
        result = per_layer(args.workload, args.seed, digests, started)
    else:
        result = end_to_end(args.workload, args.seed, args.seconds, digests, started)
    attempted, failed, metrics, extra, notes = result
    print(f"{args.workload} seed {args.seed} trace {args.trace}: {notes}, {failed} failed")
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:36s} {value:>14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
