"""A writable index over an index someone else built.

:class:`ConcurrentRankedJoinIndex` is a thin constructor over
:class:`~repro.core.writepath.WritableRankedJoinIndex`: it adopts a
built :class:`~repro.core.index.RankedJoinIndex` and its live pool.
Like every writable index it serves any number of query threads while
writes and compactions proceed: readers take no lock, writers
serialize on the one writer lock, and no writer waits for another
writer's build.
"""

from __future__ import annotations

from typing import Iterable

from .delta import SupportsWal
from .index import RankedJoinIndex
from .tuples import RankTuple, RankTupleSet
from .writepath import WritableRankedJoinIndex, as_pool

__all__ = ["ConcurrentRankedJoinIndex"]


class ConcurrentRankedJoinIndex(WritableRankedJoinIndex):
    """Lock-free reads and serialized writes over an adopted index.

    ``pool`` seeds the full live set compaction rebuilds from; it
    defaults to the index's dominating set, which is only complete when
    pruning dropped nothing — a bare wrapper over a pruned index serves
    reads and refuses writes.
    """

    def __init__(
        self,
        index: RankedJoinIndex,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        pool: Iterable[RankTuple] | None = None,
        build_options: dict | None = None,
    ):
        super().__init__(
            index,
            as_pool(pool if pool is not None else index.dominating),
            wal,
            threshold=delta_threshold,
            build_options=build_options,
            pool_complete=(
                pool is not None or index.stats.n_input == len(index.dominating)
            ),
        )

    @classmethod
    def build(
        cls,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **options,
    ) -> "ConcurrentRankedJoinIndex":
        """Build the wrapped index; ``options`` are forwarded verbatim to
        :meth:`RankedJoinIndex.build` here and on every compaction and
        :meth:`rebuild`, and the full input becomes the live pool."""
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        return cls(
            RankedJoinIndex.build(tuples, k, **options),
            wal=wal,
            delta_threshold=delta_threshold,
            pool=tuples,
            build_options=options,
        )
