"""Instrumentation wiring: recorders observe, never interfere.

Two properties are checked for every instrumented subsystem:

* attaching a :class:`MetricsRecorder` populates the documented
  counters (``docs/OBSERVABILITY.md`` glossary);
* results are identical with and without a recorder attached.
"""

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.datagen.preferences import random_preferences
from repro.obs import MetricsRecorder
from repro.sql import SQLDatabase
from repro.storage.diskindex import DiskRankedJoinIndex


def _uniform(n, seed=3):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_pairs(
        rng.uniform(0, 100, n), rng.uniform(0, 100, n)
    )


@pytest.fixture(scope="module")
def tuples():
    return _uniform(400)


@pytest.fixture(scope="module")
def preferences():
    return random_preferences(25, seed=11)


class TestBuildInstrumentation:
    def test_build_counters(self, tuples):
        recorder = MetricsRecorder()
        index = RankedJoinIndex.build(tuples, 8, recorder=recorder)
        assert recorder.counter("dominance.input") == len(tuples)
        assert recorder.counter("dominance.kept") == index.stats.n_dominating
        assert recorder.counter("dominance.pruned") == len(tuples) - (
            index.stats.n_dominating
        )
        assert recorder.counter("sweep.regions") == index.stats.n_regions
        assert recorder.counter("sweep.events") == index.stats.n_events
        assert (
            recorder.counter("sweep.pairs_considered")
            == index.stats.pairs_considered
        )

    def test_build_spans(self, tuples):
        recorder = MetricsRecorder()
        RankedJoinIndex.build(tuples, 8, recorder=recorder)
        names = {span.name for span in recorder.spans}
        assert {
            "build",
            "build.dominating",
            "build.separating",
            "build.load",
        } <= names


class TestQueryInstrumentation:
    def test_query_counters(self, tuples, preferences):
        recorder = MetricsRecorder()
        index = RankedJoinIndex.build(tuples, 8, recorder=recorder)
        recorder.reset()
        for preference in preferences:
            index.query(preference, 5)
        assert recorder.counter("rji.queries") == len(preferences)
        assert recorder.series("rji.regions_touched").total == len(
            preferences
        )
        assert recorder.series("rji.descent_steps").count == len(preferences)
        assert recorder.series("rji.tuples_evaluated").total >= 5 * len(
            preferences
        )

    def test_batch_counters(self, tuples, preferences):
        # A batch of n is n query calls: the same counters and the same
        # samples in the same order.
        def events(answer):
            recorder = MetricsRecorder()
            index = RankedJoinIndex.build(tuples, 8, recorder=recorder)
            recorder.reset()
            answer(index)
            snapshot = recorder.snapshot()
            return (
                snapshot["counters"],
                {name: recorder.samples(name) for name in snapshot["series"]},
            )

        batch = preferences[:3] * 2 + preferences
        counters, series = events(lambda index: index.query_batch(batch, 5))
        assert (counters, series) == events(
            lambda index: [index.query(p, 5) for p in batch]
        )
        assert counters["rji.queries"] == len(batch)
        assert len(series["rji.tuples_evaluated"]) == len(batch)

    def test_results_identical_with_and_without(self, tuples, preferences):
        plain = RankedJoinIndex.build(tuples, 8)
        instrumented = RankedJoinIndex.build(
            tuples, 8, recorder=MetricsRecorder()
        )
        for preference in preferences:
            assert plain.query(preference, 8) == instrumented.query(
                preference, 8
            )


class TestStorageInstrumentation:
    def test_disk_counters(self, tuples, preferences):
        index = RankedJoinIndex.build(tuples, 8)
        recorder = MetricsRecorder()
        disk = DiskRankedJoinIndex(index, recorder=recorder)
        recorder.reset()
        for preference in preferences:
            disk.query(preference, 5)
        assert recorder.counter("disk.queries") == len(preferences)
        assert recorder.series("disk.btree_nodes").count == len(preferences)
        compared = recorder.series("disk.btree_keys_compared")
        assert compared.count == len(preferences)
        assert compared.total >= recorder.series("disk.btree_nodes").total
        assert recorder.series("disk.pages_read").count == len(preferences)
        assert recorder.counter("buffer.hits") + recorder.counter(
            "buffer.misses"
        ) > 0

    def test_pager_counters_match_legacy(self, tuples):
        recorder = MetricsRecorder()
        disk = DiskRankedJoinIndex(
            RankedJoinIndex.build(tuples, 8), recorder=recorder
        )
        # The recorder's pager counters mirror the pager's own tallies.
        assert recorder.counter("pager.writes") == (
            disk.pager.counters.writes
        )

    def test_disk_results_identical(self, tuples, preferences):
        index = RankedJoinIndex.build(tuples, 8)
        plain = DiskRankedJoinIndex(index)
        instrumented = DiskRankedJoinIndex(index, recorder=MetricsRecorder())
        for preference in preferences:
            assert plain.query(preference, 5) == instrumented.query(
                preference, 5
            )


class TestSQLInstrumentation:
    def test_statement_counters(self):
        recorder = MetricsRecorder()
        db = SQLDatabase(recorder=recorder)
        db.execute("CREATE TABLE t (a FLOAT, b FLOAT)")
        db.execute("INSERT INTO t VALUES (1.0, 2.0), (3.0, 4.0)")
        out = db.execute("SELECT * FROM t WHERE a > 0 ORDER BY b LIMIT 5")
        assert out.n_rows == 2
        assert recorder.counter("sql.statements") == 1
        assert recorder.series("sql.rows_out").total == 2
        names = {span.name for span in recorder.spans}
        assert "sql.execute" in names
        assert "sql.op.source" in names

    def test_sql_results_identical(self):
        def rows(engine):
            engine.execute("CREATE TABLE t (a FLOAT, b FLOAT)")
            engine.execute("INSERT INTO t VALUES (1.0, 2.0), (3.0, 4.0)")
            return list(
                engine.execute("SELECT a FROM t ORDER BY a").column("a")
            )

        assert rows(SQLDatabase()) == rows(
            SQLDatabase(recorder=MetricsRecorder())
        )
