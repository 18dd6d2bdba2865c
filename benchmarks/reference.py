"""Fixed reference work, timed beside every op of a run.

A shared host changes the speed it gives a process by a third or more
within minutes, and every op slows with it.  The reference does the same
kinds of work as a workload's ops, without the library, so it slows by
about as much.  A run reports the op latency relative to the reference
timed beside it: that ratio moves with the program and much less with the
host (benchmarks/README.md has the measurements).

Each workload names the parts that match its ops:

- ``interpreter``: a pure-Python loop (forcing's overhead around kernels);
- ``small_arrays``: numpy calls on 4x4 tables (forcing's density calls);
- ``kernels``: 96x96 matrix products (chain's tables);
- ``memory``: scattered updates of an 8 MiB array (the subset DP).

Each part takes about 2 ms on a 2-core Xeon sandbox.
"""

from __future__ import annotations

import numpy as np

ARRAY_LEN = 1 << 20  # 8 MiB of float64


class Reference:
    def __init__(self, parts: tuple[str, ...]):
        self.steps = [getattr(self, "_" + part) for part in parts]
        rng = np.random.Generator(np.random.PCG64(0))
        self.small = rng.random((4, 4))
        self.weights = np.full(4, 0.25)
        self.medium = rng.random((96, 96))
        if "memory" in parts:
            self.array = np.zeros(ARRAY_LEN)
            self.index = rng.integers(0, ARRAY_LEN, 100_000)

    def run(self) -> float:
        return sum(step() for step in self.steps)

    @staticmethod
    def _interpreter() -> float:
        total = 0
        for i in range(25_000):
            total += i * i
        return float(total % 7)

    def _small_arrays(self) -> float:
        acc = 0.0
        for _ in range(250):
            table = np.einsum("ij,jk->ik", self.small, self.small)
            acc += float(self.weights @ table @ self.weights)
        return acc

    def _kernels(self) -> float:
        acc = 0.0
        for _ in range(45):
            acc += float((self.medium @ self.medium).sum())
        return acc

    def _memory(self) -> float:
        self.array[self.index] += 1.0
        return float(self.array[0])
