"""Stateful property test: the maintained tiers always equal their model.

Hypothesis drives random interleavings of inserts, deletes, compactions
and queries against three subjects of the one writable index:
:meth:`WritableRankedJoinIndex.build` and the constructor adopting a
built index (both on the default in-memory log), and
:class:`DurableRankedJoinIndex` (a real WAL in a temporary directory,
``fsync=False``).
The model is the live tuple set; the oracle is a from-scratch
``RankedJoinIndex.build`` over it, matched bit for bit.  Integer
coordinates make exact score ties the common case.

On the axis (angle 0) a dominated tuple ties its dominator in score, so
the pruned rebuild and the merged view may name different tids there
(docs/RELIABILITY.md, "Exactness"); only the scores are compared at
that one angle.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTuple
from repro.core.writepath import WritableRankedJoinIndex, as_pool
from repro.errors import InvalidQueryError
from repro.storage.durable import DurableRankedJoinIndex

coords = st.integers(min_value=0, max_value=9)
AXIS = 0.0
angles = st.one_of(st.just(AXIS), st.floats(1e-6, 1.5707))


def _answers(index, batch, k, vectorized):
    if vectorized:
        return index.query_batch(batch, k)
    return [index.query(angle, k) for angle in batch]


class MaintainedIndexMachine(RuleBasedStateMachine):
    @initialize(
        pairs=st.lists(st.tuples(coords, coords), min_size=2, max_size=12),
        k_bound=st.integers(1, 4),  # at K = 1 a delete can empty a region
    )
    def build(self, pairs, k_bound):
        self.k_bound = k_bound
        self.model = {
            tid: RankTuple(tid, float(a), float(b))
            for tid, (a, b) in enumerate(pairs)
        }
        self.next_tid = len(pairs)
        tuples = sorted(self.model.values())
        self.directory = Path(tempfile.mkdtemp(prefix="rji-machine-"))
        self.tiers = (
            WritableRankedJoinIndex.build(tuples, k_bound),
            WritableRankedJoinIndex(
                RankedJoinIndex.build(tuples, k_bound), as_pool(tuples)
            ),
            DurableRankedJoinIndex.create(
                self.directory, tuples, k_bound, fsync=False
            ),
        )

    def teardown(self):
        if hasattr(self, "tiers"):
            self.tiers[2].close()
            shutil.rmtree(self.directory, ignore_errors=True)

    @rule(a=coords, b=coords)
    def insert(self, a, b):
        new = RankTuple(self.next_tid, float(a), float(b))
        self.next_tid += 1
        self.model[new.tid] = new
        for tier in self.tiers:
            assert tier.insert(new) is True

    @precondition(lambda self: len(self.model) > 1)
    @rule(data=st.data())
    def delete(self, data):
        victim = data.draw(st.sampled_from(sorted(self.model)))
        del self.model[victim]
        for tier in self.tiers:
            tier.delete(victim)

    @rule()
    def compact(self):
        for tier in self.tiers:
            tier.compact()
            assert tier.k_effective == self.k_bound

    def _check(self, batch, k, vectorized):
        k = min(k, self.k_bound)
        reference = RankedJoinIndex.build(sorted(self.model.values()), self.k_bound)
        want = _answers(reference, batch, k, vectorized)
        for tier in self.tiers:
            if k > tier.k_effective:
                with pytest.raises(InvalidQueryError):
                    _answers(tier, batch, k, vectorized)
                continue
            got = _answers(tier, batch, k, vectorized)
            for angle, mine, theirs in zip(batch, got, want):
                if angle == AXIS:
                    mine = [r.score for r in mine]
                    theirs = [r.score for r in theirs]
                assert mine == theirs

    @rule(angle=angles, k=st.integers(1, 4))
    def query(self, angle, k):
        self._check([angle], k, vectorized=False)

    @rule(batch=st.lists(angles, min_size=1, max_size=4), k=st.integers(1, 4))
    def query_batch(self, batch, k):
        self._check(batch, k, vectorized=True)

    @invariant()
    def tiers_agree_with_the_model(self):
        if hasattr(self, "tiers"):
            for tier in self.tiers:
                tier.check_invariants()
            assert len({tier.k_effective for tier in self.tiers}) == 1
            assert {tier.n_live for tier in self.tiers} == {len(self.model)}


MaintainedIndexMachine.TestCase.settings = settings(
    max_examples=25, stateful_step_count=20, deadline=None
)
TestMaintainedIndex = MaintainedIndexMachine.TestCase
