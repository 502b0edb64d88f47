"""The benchmark's tracer reaches into the package by name.

``bench/spans.py`` wraps ``morphisms._f_image``, ``verify.run_suite``,
``cli.main``, ``Scalar`` arithmetic and every function one module imports
from another, and reads the caches of ``_f_image``, ``_rho_word`` and
``_trace_f_word``.  A rename in the package would break the benchmark, so
this installs the tracer in a fresh interpreter, runs one invariant, one
affine trace (the invariant alone reaches neither ``_rho_word`` nor
``_f_image``) and one verify suite, and checks the per-layer metrics it
reports.  It only reads ``bench/``.
"""
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

TRACED_RUN = r"""
import contextlib, io, json, os, sys
root = sys.argv[1]
sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "bench")]
import affinetl.cli
import spans

tracer = spans.Tracer()
spans.install(tracer)
with contextlib.redirect_stdout(io.StringIO()):
    codes = [affinetl.cli.main(["invariant", "--gens", "3", "a s1 s2^-1 s1"]),
             affinetl.cli.main(["verify", "--suite", "relations", "--gens", "2"]),
             affinetl.cli.main(["trace", "--gens", "3", "[s1 a]"])]
print(json.dumps({"codes": codes, "per_layer": spans.per_layer(tracer)}))
"""


def test_bench_tracer_finds_every_name():
    proc = subprocess.run([sys.executable, "-c", TRACED_RUN, ROOT],
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["codes"] == [0, 0, 0]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    per_layer = out["per_layer"]
    assert set(per_layer) == declared - {"trace_overhead"}
    for name in ("scalars.ops", "coxeter.cartier_foata.calls", "algebra.reduce_letters.calls",
                 "algebra.multiply.calls", "morphisms.f_image.misses", "traces.rho_word.misses",
                 "traces.trace_f_word.misses", "verify.checks_passed", "morphisms.E_map.self_s",
                 "verify.run_suite.self_s", "cli.main.self_s"):
        assert per_layer[name] > 0, name
