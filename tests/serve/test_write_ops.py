"""The insert/delete wire ops: round trips, typed errors, read-only.

Writes ride the same admission control and tracing as queries and run,
like them, on the reader that read them; a read-only service (a bare
``RankedJoinIndex`` without a write path) sheds them with a typed
error before they consume a queue slot.
"""

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTuple, RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex
from repro.datagen.preferences import random_preferences
from repro.errors import InvalidQueryError, MaintenanceError
from repro.serve import WRITE_OPS, Client, QueryServer
from repro.serve.protocol import decode_request
from repro.serve.service import MutableIndexService
from repro.storage.durable import DurableRankedJoinIndex
from repro.storage.wal import WriteAheadLog


def _tuples(n=200, seed=2):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


@pytest.fixture()
def durable(tmp_path):
    index = DurableRankedJoinIndex.create(
        tmp_path, _tuples(), 12, fsync=False
    )
    yield index
    index.close()


@pytest.fixture()
def server(durable):
    with QueryServer(durable, port=0, queue_bound=64) as srv:
        yield srv


@pytest.fixture()
def client(server):
    host, port = server.address
    with Client(host, port) as c:
        yield c


class TestRoundTrip:
    def test_insert_then_query(self, durable, client):
        assert client.insert(RankTuple(999, 2.0, 2.0)) is True
        best = client.query((0.5, 0.5), 1)
        assert best[0].tid == 999
        assert best == durable.query((0.5, 0.5), 1)

    def test_delete_reports_k_effective(self, durable, client):
        before = durable.k_effective
        remaining = client.delete(3)
        assert remaining == durable.k_effective <= before
        for preference in random_preferences(10, seed=7):
            assert client.query(preference, 5) == durable.query(
                preference, 5
            )

    def test_stats_expose_the_write_buffer(self, durable, client):
        assert client.stats()["writes"] == {
            "delta_ops": 0, "charged": 0, "visible": 0, "k_effective": 12
        }
        client.insert(RankTuple(999, 2.0, 2.0))  # tops every answer
        client.insert(RankTuple(998, -1.0, -1.0))  # under every tuple
        client.delete(int(durable.query((0.5, 0.5), 2)[1].tid))
        assert client.stats()["writes"] == {
            "delta_ops": 3, "charged": 1, "visible": 1, "k_effective": 11
        }
        with QueryServer(RankedJoinIndex.build(_tuples(), 4), port=0) as bare:
            assert "writes" not in bare.stats_snapshot()

    def test_writes_are_durable_through_the_wire(
        self, tmp_path, durable, client
    ):
        client.insert(RankTuple(700, 0.9, 0.9))
        client.delete(0)
        durable.close()
        recovered = DurableRankedJoinIndex.recover(tmp_path, fsync=False)
        live = {t.tid for t in recovered.live_tuples()}
        assert 700 in live and 0 not in live
        recovered.close()

    def test_managed_index_serves_writes_too(self):
        managed = WritableRankedJoinIndex.build(
            list(_tuples()), 10, compaction_threshold=1000
        )
        with QueryServer(managed, port=0) as server:
            with Client(*server.address) as client:
                assert client.insert(RankTuple(901, 0.8, 0.8)) is True
                assert client.delete(901) == managed.k_effective


class TestTypedErrors:
    def test_maintenance_errors_round_trip(self, client):
        with pytest.raises(MaintenanceError, match="already live"):
            client.insert(RankTuple(0, 0.5, 0.5))
        with pytest.raises(MaintenanceError, match="is not live"):
            client.delete(10_000)

    def test_unencodable_tid_never_reaches_the_wal(self, durable, client):
        # The WAL packs a tid as a signed 64-bit field; past that the
        # request is refused at decode and the connection keeps serving.
        with pytest.raises(InvalidQueryError, match="64-bit"):
            client.insert(RankTuple(10**30, 0.5, 0.5))
        with pytest.raises(InvalidQueryError, match="64-bit"):
            client.delete(-(2**63) - 1)
        assert durable.delta.n_ops == 0
        for tid in (2**63 - 1, -(2**63)):  # the edges are served
            assert client.insert(RankTuple(tid, 0.5, 0.5)) is True
            assert client.delete(tid) == durable.k_effective

    def test_read_only_service_sheds_writes(self):
        index = RankedJoinIndex.build(_tuples(), 10)
        with QueryServer(index, port=0) as server:
            with Client(*server.address) as client:
                with pytest.raises(InvalidQueryError, match="read-only"):
                    client.insert(RankTuple(901, 0.5, 0.5))
                with pytest.raises(InvalidQueryError, match="read-only"):
                    client.delete(3)
                # Reads still flow on the same connection.
                assert client.query((0.5, 0.5), 3) == index.query(
                    (0.5, 0.5), 3
                )


class TestProtocol:
    def test_write_ops_are_registered(self):
        assert WRITE_OPS == {"insert", "delete"}

    def test_durable_index_satisfies_mutable_service(self, durable):
        assert isinstance(durable, MutableIndexService)
        assert not isinstance(
            RankedJoinIndex.build(_tuples(), 5), MutableIndexService
        )

    def test_decode_insert(self):
        request = decode_request(
            {"op": "insert", "id": 1, "tuple": [42, 0.25, 0.75]}
        )
        assert request.tuple_ == (42, 0.25, 0.75)

    @pytest.mark.parametrize(
        "raw",
        [
            None,
            [1, 2],
            [1.5, 0.2, 0.3],
            [True, 0.2, 0.3],
            [1, "x", 0.3],
            [1, 0.2, None],
        ],
    )
    def test_decode_insert_rejects_bad_tuples(self, raw):
        with pytest.raises(InvalidQueryError, match="tid, s1, s2"):
            decode_request({"op": "insert", "id": 1, "tuple": raw})

    def test_decode_delete(self):
        request = decode_request({"op": "delete", "id": 2, "tid": 9})
        assert request.tid == 9

    @pytest.mark.parametrize("tid", [None, 1.5, True, "9"])
    def test_decode_delete_rejects_bad_tids(self, tid):
        with pytest.raises(InvalidQueryError, match="tid"):
            decode_request({"op": "delete", "id": 2, "tid": tid})

    def test_wal_types_satisfy_the_core_protocol(self, tmp_path):
        from repro.core.delta import SupportsWal

        wal = WriteAheadLog(tmp_path, fsync=False)
        assert isinstance(wal, SupportsWal)
        wal.close()
