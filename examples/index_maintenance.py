"""Index maintenance: keeping an RJI fresh under updates.

The paper lists incremental maintenance as future work (Section 9);
this library answers it with one writable index: a write buffer and a
compaction schedule, in memory or over a write-ahead log.  The example
streams inserts and deletes through a
:class:`~repro.core.writepath.WritableRankedJoinIndex` built over a
tuple set,
checks a sample of answers against a freshly rebuilt index while the
writes are still buffered, shows deletes of indexed tuples consuming the
effective-k slack, and compacts to restore it.

Run with::

    python examples/index_maintenance.py
"""

import numpy as np

from repro import Preference, RankedJoinIndex, RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex

N_INITIAL = 5_000
N_STREAM = 300
K = 20


def _verify(managed: WritableRankedJoinIndex, live: dict[int, RankTuple]) -> None:
    rebuilt = RankedJoinIndex.build(sorted(live.values()), K)
    k = managed.k_effective
    for angle in np.linspace(0.05, 1.5, 25):
        preference = Preference.from_angle(float(angle))
        assert managed.query(preference, k) == rebuilt.query(preference, k), (
            f"divergence at angle {angle}"
        )


def main() -> None:
    rng = np.random.default_rng(123)
    s1 = rng.uniform(0, 100, N_INITIAL + N_STREAM)
    s2 = rng.uniform(0, 100, N_INITIAL + N_STREAM)

    initial = RankTupleSet(np.arange(N_INITIAL), s1[:N_INITIAL], s2[:N_INITIAL])
    live = {t.tid: t for t in initial}
    managed = WritableRankedJoinIndex.build(
        initial, K, compaction_threshold=N_STREAM + 10
    )
    print(
        f"initial index: {managed.index.n_regions} regions over "
        f"{N_INITIAL} tuples"
    )

    for i in range(N_INITIAL, N_INITIAL + N_STREAM):
        live[i] = RankTuple(i, float(s1[i]), float(s2[i]))
        managed.insert(live[i])
    delta = managed.delta
    print(
        f"streamed {N_STREAM} inserts into the write buffer: "
        f"{delta.n_visible} can reach a top-{K} and are merged into reads, "
        f"{N_STREAM - delta.n_visible} are K-dominated and cost nothing"
    )
    _verify(managed, live)
    print("verified: buffered index == full rebuild")

    for tid in managed.index.regions[0].tids[:3]:
        del live[tid]
        effective = managed.delete(tid)
    print(
        f"deleted 3 indexed tuples; until compaction the index guarantees "
        f"top-k only up to k={effective} (was {K})"
    )
    _verify(managed, live)

    managed.compact()
    assert managed.k_effective == K and managed.delta.is_empty
    _verify(managed, live)
    print(
        f"compacted in {managed.compaction_pauses[-1] * 1e3:.1f} ms: "
        f"{managed.index.n_regions} regions, k={managed.k_effective} "
        "guaranteed again, answers still equal a full rebuild"
    )
    preference = Preference(1.0, 1.0)
    print("top-5 now:", [r.tid for r in managed.query(preference, 5)])


if __name__ == "__main__":
    main()
