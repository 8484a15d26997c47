"""Extra — maintenance vs full rebuild (future work, §9)."""

import numpy as np

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex

N_BASE = 20_000
N_STREAM = 50
K = 25

rng_data = np.random.default_rng(0)
S1 = rng_data.uniform(0, 100, N_BASE + N_STREAM)
S2 = rng_data.uniform(0, 100, N_BASE + N_STREAM)


def test_bench_incremental_insert_stream(benchmark):
    """Apply a 50-insert stream to a writable index, then compact.

    The base build happens in setup; the timed part is what keeping the
    index fresh costs: 50 buffered writes plus the one compaction that
    folds them into a new base.
    """
    full = RankTupleSet(np.arange(N_BASE + N_STREAM), S1, S2)
    base = full[np.arange(N_BASE)]

    def setup():
        return (WritableRankedJoinIndex.build(base, K),), {}

    def stream(managed):
        for i in range(N_BASE, N_BASE + N_STREAM):
            managed.insert(full.row(i))
        managed.compact()
        return managed

    managed = benchmark.pedantic(stream, setup=setup, rounds=3, iterations=1)
    assert managed.n_live == N_BASE + N_STREAM and managed.delta.is_empty


def test_bench_rebuild_after_stream(benchmark):
    """The alternative: one full rebuild over base + stream."""
    full = RankTupleSet(np.arange(N_BASE + N_STREAM), S1, S2)
    index = benchmark.pedantic(
        lambda: RankedJoinIndex.build(full, K), rounds=3, iterations=1
    )
    assert index.n_regions >= 1
