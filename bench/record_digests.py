"""
Record ``digests.json``: the digest of every op's output text in the batches
of the traced run, for the committed seeds, so that later runs on those seeds catch any
change of output, not only the ones the oracles see.

    python3 bench/record_digests.py

Run it from the root of a checkout of the commit whose outputs are the
reference.  Every op must pass its oracle, or nothing is written.
"""
from __future__ import annotations

import json
import sys
import time

from oracles import digest
from run import DIGESTS, TRACE_BATCHES, check_op, run_child
from workloads import WORKLOADS

SEEDS = range(10)


def main() -> int:
    digests: dict = {}
    for workload in WORKLOADS:
        for seed in SEEDS:
            texts = []
            for batch in range(TRACE_BATCHES):
                rec = run_child(workload, seed, batch, time.monotonic())
                for op in rec["ops"]:
                    if not check_op(workload, seed, len(texts), op, {}):
                        print(f"{workload} seed {seed} op {len(texts)} fails its oracle",
                              file=sys.stderr)
                        return 1
                    texts.append(op["text"])
            digests[f"{workload}/{seed}"] = [digest(t) for t in texts]
            print(f"{workload} seed {seed}: {len(texts)} ops", flush=True)
    with open(DIGESTS, "w") as fh:
        rows = (f"{json.dumps(key)}: {json.dumps(value)}" for key, value in digests.items())
        fh.write("{\n" + ",\n".join(rows) + "\n}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
