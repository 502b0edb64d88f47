"""
One benchmark child: import ``affinetl`` from the checkout, build one batch of
seeded inputs, run its ops and print one JSON record on stdout.

    python3 bench/child.py '{"workload": "inv-r3", "seed": 0, "batch": 0,
                             "trace": false, "spans_path": null, "spawned": <monotonic>}'

``spawned`` is the parent's ``time.monotonic()`` just before it started this
process, so set-up time covers interpreter start, the package import and
input generation.  Outputs are checked by the parent, after this process has
ended, outside the timed phase.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)


def _runner(workload: str):
    """A function running one op of ``workload``: it takes the op's input
    and returns the program's exit code and output text."""
    from affinetl import cli, traces
    from workloads import WORKLOADS

    gens = WORKLOADS[workload].gens

    def solve(k):
        alphas, betas, beta_revs = traces.solve_alpha_beta(k)
        return 0, "\n".join(str(x) for x in alphas + betas + beta_revs)

    def call_cli(arg):
        if gens:
            argv = ["invariant", "--gens", str(gens), arg]
        else:
            argv = ["verify", "--suite", "all", "--seed", str(arg), "--format", "json"]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    return solve if workload == "solve-k20" else call_cli


def main(spec: dict) -> dict:
    sys.path.insert(0, os.path.join(ROOT, "src"))
    from workloads import batch_inputs

    import affinetl
    import affinetl.cli  # noqa: F401  (every op enters through the CLI or traces)

    src = os.path.join(ROOT, "src", "affinetl")
    if os.path.dirname(os.path.abspath(affinetl.__file__)) != src:
        raise SystemExit(f"affinetl imported from {affinetl.__file__}, not from {src}")
    inputs = batch_inputs(spec["workload"], spec["seed"], spec["batch"])
    setup_s = time.monotonic() - spec["spawned"]

    tracer = None
    if spec["trace"]:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    run = _runner(spec["workload"])
    ops = []
    started = time.perf_counter()
    for i, arg in enumerate(inputs):
        if tracer is not None:
            tracer.op = i
        t0 = time.perf_counter()
        try:
            code, text = run(arg)
            error = None
        except (Exception, SystemExit) as exc:  # a crashed op is a failed op
            code, text, error = None, None, repr(exc)
        seconds = time.perf_counter() - t0
        ops.append({"seconds": seconds, "code": code, "text": text, "error": error})
    record = {
        "setup_s": setup_s,
        "timed_s": time.perf_counter() - started,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
    }
    if tracer is not None:
        record["per_layer"] = spans.per_layer(tracer)
        if spec["spans_path"]:
            tracer.write(spec["spans_path"])
    return record


if __name__ == "__main__":
    sys.stdout.write(json.dumps(main(json.loads(sys.argv[1]))) + "\n")
