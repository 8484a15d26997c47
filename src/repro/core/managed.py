"""A managed index: the writable index built from a tuple set.

:class:`ManagedRankedJoinIndex` is a thin constructor over
:class:`~repro.core.writepath.WritableRankedJoinIndex`: it builds the
base from ``tuples``, makes them the live pool, and writes through
``wal`` (the in-memory log when omitted).  A delete that hides an
indexed tuple lowers ``k_effective`` by one until the next compaction;
deleting a K-dominated tuple changes nothing (Lemma 2; see
:mod:`repro.core.delta`).
"""

from __future__ import annotations

from typing import Iterable

from .delta import SupportsWal
from .index import RankedJoinIndex
from .tuples import RankTuple, RankTupleSet
from .writepath import WritableRankedJoinIndex

__all__ = ["ManagedRankedJoinIndex"]


class ManagedRankedJoinIndex(WritableRankedJoinIndex):
    """Index + tuple pool + compaction once the write buffer is due.

    ``build_options`` are forwarded verbatim to
    :meth:`RankedJoinIndex.build` on the initial build and every
    compaction, so construction tuning (``variant=``, ``merge_slack=``,
    ``recorder=``, ...) sticks for the index's lifetime.
    """

    def __init__(
        self,
        tuples: RankTupleSet | Iterable[RankTuple],
        k: int,
        *,
        wal: SupportsWal | None = None,
        delta_threshold: int = 64,
        **build_options,
    ):
        if not isinstance(tuples, RankTupleSet):
            tuples = RankTupleSet.from_tuples(tuples)
        super().__init__(
            RankedJoinIndex.build(tuples, k, **build_options),
            {t.tid: t for t in tuples},
            wal,
            threshold=delta_threshold,
            build_options=build_options,
        )
