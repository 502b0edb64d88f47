"""
Seeded inputs for the benchmark workloads.

Every input is a pure function of (workload, seed, op index), built here with
the standard library only, so a refactor of ``affinetl`` (its ``verify``
generators included) cannot change what a workload feeds the program.  The
program sees only the generated braid text or command-line arguments.

An op stream is cut into fixed batches; each batch runs in a fresh child
process, the way one ``affinetl`` command pays for cold caches.  A fixed batch
keeps cache sizes and peak memory independent of how fast the program runs.
"""
from __future__ import annotations

import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    batch: int  # ops per child process
    gens: int = 0  # braid generators, inv-* only
    letters: int = 0  # braid length, inv-* only
    wraps: int = 0  # wrap letters per braid, inv-* only


# why each workload was chosen is recorded in BENCHMARK.json
WORKLOADS = {
    w.name: w
    for w in (
        Workload("inv-r3", batch=25, gens=3, letters=20, wraps=6),
        Workload("inv-r7", batch=1, gens=7, letters=12, wraps=1),
        Workload("solve-k20", batch=1),
        Workload("verify-all", batch=3),
    )
}

SOLVE_K = 20


def braid_text(w: Workload, rng: random.Random) -> str:
    """A braid word of exactly ``w.letters`` letters over the rank-``w.gens``
    affine braid group, with exactly ``w.wraps`` wrap letters ``a``, every
    other generator at least once, no letter next to its own inverse, and a
    wrap letter first.

    At rank 7 the cost of a braid is exponential in its wrap letters, a braid
    missing a generator closes up like one of lower rank, and where the wrap
    letter sits changes the cost several times over.  Fixing all three keeps
    the cost of a seed's ops from swinging far more than any change to the
    program would; a rotated word closes to the same link, so starting with
    a wrap letter leaves out no link.
    """
    names = [f"s{i}" for i in range(1, w.gens)] + ["a"]
    plain = w.gens - 1
    while True:
        seq = list(range(plain)) + [plain] * w.wraps
        seq += [rng.randrange(plain) for _ in range(w.letters - len(seq))]
        rng.shuffle(seq)
        first = seq.index(plain)
        seq = seq[first:] + seq[:first]
        letters = [(s, rng.choice((1, -1))) for s in seq]
        if all(x != (s, -e) for x, (s, e) in zip(letters, letters[1:] + letters[:1])):
            return " ".join(names[s] + ("" if e == 1 else "^-1") for s, e in letters)


def op_input(workload: str, seed: int, index: int):
    """The input of op ``index`` in the stream of ``workload`` for ``seed``:
    braid text for inv-*, a verify seed for verify-all, k for solve-k20."""
    w = WORKLOADS[workload]
    rng = random.Random(f"{workload}/{seed}/{index}")
    if w.gens:
        return braid_text(w, rng)
    if workload == "verify-all":
        return rng.randrange(2**31)
    return SOLVE_K


def batch_inputs(workload: str, seed: int, batch: int) -> list:
    size = WORKLOADS[workload].batch
    return [op_input(workload, seed, i) for i in range(batch * size, (batch + 1) * size)]
