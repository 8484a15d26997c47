"""Seed -> inputs.  The only module of the harness that sees ``--seed``.

Everything the program under test receives — join tuples, preference
vectors, the insert/delete stream — is generated here from the seed and
handed on as plain values; workloads, the server child and the layer
replay never see the seed itself (``test_harness.py`` checks that).
The same seed gives the same inputs; sub-streams (per client, per
segment) are derived with ``numpy.random.SeedSequence`` so they are
independent of how many of them a run happens to consume.
"""

from __future__ import annotations

import hashlib
from collections import deque
from dataclasses import dataclass

import numpy as np

from repro.core.scoring import Preference
from repro.core.tuples import RankTuple, RankTupleSet
from repro.datagen.synthetic import correlated_pairs, uniform_pairs


@dataclass(frozen=True)
class Shape:
    """Dataset shape of one workload: distribution, size, K, query k."""

    dist: str
    n: int
    k_bound: int
    k: int


_BUILD_HEAVY = Shape("anticorrelated", 20000, 80, 20)
SHAPES = {
    "serve-read": Shape("uniform", 5000, 20, 10),
    "serve-mixed": Shape("uniform", 4000, 20, 10),
    "core-read": _BUILD_HEAVY,
    "disk-read": _BUILD_HEAVY,
    "durable-mixed": Shape("uniform", 4000, 20, 10),
}

#: Inserted ranks share the base data's range (``uniform_pairs`` default).
_RANK_HIGH = 100.0
#: A client deletes its own insert from this many inserts ago, so the
#: victim has usually been compacted into the base (a real tombstone),
#: not just cancelled in the delta.
_DELETE_LAG = 32
#: Client ``c`` inserts tids from ``n + c * _TID_STRIDE``: disjoint
#: ranges make the final live set independent of interleaving.
_TID_STRIDE = 1_000_000


class WriteStream:
    """One client's deterministic insert/delete stream.

    The first ``lag + 1`` writes are inserts; after that deletes (of the
    oldest own insert) and inserts alternate.  The stream assumes every
    write it hands out is acknowledged; the workload keeps its own
    record of what the program actually acknowledged.
    """

    def __init__(self, rng: np.random.Generator, first_tid: int, lag: int):
        self._rng = rng
        self._next_tid = first_tid
        self._lag = lag
        self._own: deque[int] = deque()
        self._delete_next = False

    def next(self) -> tuple[str, RankTuple | int]:
        if self._delete_next and len(self._own) > self._lag:
            self._delete_next = False
            return ("delete", self._own.popleft())
        self._delete_next = True
        s1, s2 = self._rng.uniform(0.0, _RANK_HIGH, 2)
        tuple_ = RankTuple(self._next_tid, float(s1), float(s2))
        self._own.append(self._next_tid)
        self._next_tid += 1
        return ("insert", tuple_)


class Inputs:
    """All seeded inputs of one workload run."""

    def __init__(self, shape: Shape, seed: int):
        self.shape = shape
        self._seed = seed
        if shape.dist == "uniform":
            self.tuples: RankTupleSet = uniform_pairs(shape.n, seed=seed)
        elif shape.dist == "anticorrelated":
            self.tuples = correlated_pairs(shape.n, rho=-0.6, seed=seed)
        else:
            raise ValueError(f"unknown distribution {shape.dist!r}")

    def _rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self._seed, *stream])

    def preferences(self, n: int, *stream: int) -> list[Preference]:
        """``n`` uniform-random query directions (the paper's workload)."""
        angles = self._rng(1, *stream).uniform(0.0, np.pi / 2.0, n)
        return [Preference.from_angle(float(a)) for a in angles]

    def write_stream(self, client: int, lag: int = _DELETE_LAG) -> WriteStream:
        return WriteStream(
            self._rng(3, client),
            self.shape.n + client * _TID_STRIDE,
            lag,
        )

    def digest(self) -> str:
        """Fingerprint of the generated inputs (same seed, same digest)."""
        h = hashlib.sha256()
        h.update(self.tuples.s1.tobytes())
        h.update(self.tuples.s2.tobytes())
        h.update(repr(self.preferences(16, 0)).encode())
        stream = self.write_stream(0, lag=2)
        for _ in range(8):
            h.update(repr(stream.next()).encode())
        return h.hexdigest()


def make_inputs(workload: str, seed: int) -> Inputs:
    return Inputs(SHAPES[workload], seed)
