"""API surface tests: every advertised name exists and is importable.

Also pins the redesigned client-facing query API: the
:class:`repro.serve.IndexService` protocol must be satisfied by all
four in-process front-doors *and* the remote client, with one canonical
``deadline=`` keyword, and malformed wire input must surface as typed
:class:`~repro.errors.InvalidQueryError` — never raw socket or JSON
errors.
"""

import importlib
import inspect

import pytest

import repro

PACKAGES = [
    "repro",
    "repro.core",
    "repro.core.dominance",
    "repro.core.geometry",
    "repro.core.index",
    "repro.core.merging",
    "repro.core.pruning",
    "repro.core.scoring",
    "repro.core.sweep",
    "repro.core.tuples",
    "repro.core.writepath",
    "repro.storage",
    "repro.rtree",
    "repro.relalg",
    "repro.relalg.stats",
    "repro.relalg.topk",
    "repro.sql",
    "repro.baselines",
    "repro.baselines.multidim",
    "repro.datagen",
    "repro.datagen.preferences",
    "repro.experiments",
    "repro.experiments.construct_rji",
    "repro.cli",
    "repro.errors",
    "repro.faults",
    "repro.obs",
    "repro.bench",
    "repro.bench.advisor",
    "repro.bench.chaos",
    "repro.bench.serve",
    "repro.core.deadline",
    "repro.serve",
    "repro.serve.client",
    "repro.serve.protocol",
    "repro.serve.server",
    "repro.serve.service",
]


@pytest.mark.parametrize("name", PACKAGES)
def test_module_all_names_resolve(name):
    module = importlib.import_module(name)
    for public in getattr(module, "__all__", []):
        assert hasattr(module, public), f"{name}.__all__ lists missing {public}"


def test_version_string():
    parts = repro.__version__.split(".")
    assert len(parts) == 3 and all(p.isdigit() for p in parts)


def test_top_level_exports_are_usable():
    assert callable(repro.RankedJoinIndex.build)
    assert callable(repro.Preference)
    assert not hasattr(repro, "topk_join_candidates")  # repro.core.pruning


@pytest.mark.parametrize(
    "retired", [{"workers": 2}, {"worker_mode": "process"}, {"block_rows": 64}]
)
def test_retired_build_keywords_are_unknown(retired):
    """The event pass runs one way; its old tuning knobs are gone."""
    from repro.datagen.synthetic import uniform_pairs

    with pytest.raises(TypeError):
        repro.RankedJoinIndex.build(uniform_pairs(50, seed=1), 5, **retired)


def test_every_public_callable_has_a_docstring():
    missing = []
    for name in PACKAGES:
        module = importlib.import_module(name)
        for public in getattr(module, "__all__", []):
            obj = getattr(module, public)
            if inspect.isfunction(obj) or inspect.isclass(obj):
                if not (obj.__doc__ or "").strip():
                    missing.append(f"{name}.{public}")
    assert missing == [], f"missing docstrings: {missing}"


def test_error_hierarchy():
    from repro.errors import (
        ConstructionError,
        CorruptPageError,
        InvalidPreferenceError,
        InvalidQueryError,
        MaintenanceError,
        PageOverflowError,
        QueryError,
        QueryTimeoutError,
        ReproError,
        SchemaError,
        ServerConnectionError,
        ServerError,
        ServerOverloadedError,
        StorageError,
        TornWriteError,
        TransientStorageError,
    )

    for exc in (
        ConstructionError,
        CorruptPageError,
        InvalidPreferenceError,
        InvalidQueryError,
        MaintenanceError,
        PageOverflowError,
        QueryError,
        QueryTimeoutError,
        SchemaError,
        ServerConnectionError,
        ServerError,
        ServerOverloadedError,
        StorageError,
        TornWriteError,
        TransientStorageError,
    ):
        assert issubclass(exc, ReproError)
    assert issubclass(PageOverflowError, StorageError)
    assert issubclass(InvalidQueryError, QueryError)
    assert issubclass(QueryTimeoutError, QueryError)
    assert issubclass(QueryError, ValueError)
    for exc in (
        CorruptPageError,
        TornWriteError,
        TransientStorageError,
    ):
        assert issubclass(exc, StorageError)
    for exc in (ServerOverloadedError, ServerConnectionError):
        assert issubclass(exc, ServerError)
    from repro.sql import SqlSyntaxError

    assert issubclass(SqlSyntaxError, ReproError)


# -- the redesigned IndexService surface -----------------------------------


def _tuples(n=120, seed=0):
    import numpy as np

    from repro.core.tuples import RankTupleSet

    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


@pytest.fixture(scope="module")
def front_doors():
    """All four in-process front-doors over the same population."""
    from repro.core.index import RankedJoinIndex
    from repro.core.writepath import WritableRankedJoinIndex, as_pool
    from repro.storage.diskindex import DiskRankedJoinIndex

    tuples = _tuples()
    index = RankedJoinIndex.build(tuples, 10)
    return {
        "RankedJoinIndex": index,
        "WritableRankedJoinIndex.build": WritableRankedJoinIndex.build(
            tuples, 10
        ),
        "WritableRankedJoinIndex(index, pool)": WritableRankedJoinIndex(
            index, as_pool(tuples)
        ),
        "DiskRankedJoinIndex": DiskRankedJoinIndex(index),
    }


def test_index_service_satisfied_by_all_front_doors(front_doors):
    from repro.serve import IndexService

    for name, service in front_doors.items():
        assert isinstance(service, IndexService), name
        assert service.k_bound == 10, name
        assert len(service.query((2.0, 1.0), 5, deadline=30.0)) == 5, name
        batches = service.query_batch([0.3, (1.0, 2.0)], 5, deadline=30.0)
        assert [len(b) for b in batches] == [5, 5], name


def test_front_doors_agree_bit_identically(front_doors):
    reference = front_doors["RankedJoinIndex"].query((2.0, 1.0), 7)
    for name, service in front_doors.items():
        assert service.query((2.0, 1.0), 7) == reference, name


def test_canonical_query_signature(front_doors):
    """Every front-door takes (preference, k, *, deadline=None, ...)."""
    methods = [
        (name, method)
        for name, service in front_doors.items()
        for method in (service.query, service.query_batch)
    ]
    for name, method in methods:
        params = list(inspect.signature(method).parameters.values())
        assert params[0].name in ("preference", "preferences"), name
        assert params[1].name == "k", name
        deadline = next(p for p in params if p.name == "deadline")
        assert deadline.kind is inspect.Parameter.KEYWORD_ONLY, name
        assert deadline.default is None, name
        assert deadline.annotation == "DeadlineLike", name


def test_remote_client_satisfies_index_service():
    from repro.serve import Client, IndexService, QueryServer

    index = _index()
    with QueryServer(index, port=0) as server:
        host, port = server.address
        with Client(host, port) as client:
            assert isinstance(client, IndexService)
            assert client.k_bound == index.k_bound
            assert client.query(0.5, 5) == index.query(0.5, 5)
            signature = inspect.signature(client.query)
            deadline = signature.parameters["deadline"]
            assert deadline.kind is inspect.Parameter.KEYWORD_ONLY


def _index():
    from repro.core.index import RankedJoinIndex

    return RankedJoinIndex.build(_tuples(), 10)


def test_invalid_wire_requests_surface_typed_errors():
    """Garbage frames come back as InvalidQueryError, never raw errors."""
    import json
    import socket

    from repro.errors import InvalidQueryError
    from repro.serve import QueryServer
    from repro.serve.protocol import read_frame, write_frame

    with QueryServer(_index(), port=0) as server:
        host, port = server.address

        def roundtrip_raw(frame_bytes):
            with socket.create_connection((host, port), timeout=10.0) as s:
                s.sendall(frame_bytes)
                return read_frame(s)

        def frame(payload) -> bytes:
            body = json.dumps(payload).encode()
            return len(body).to_bytes(4, "big") + body

        from repro.serve.protocol import MAX_FRAME_BYTES

        bad_frames = [
            len(b"nonsense").to_bytes(4, "big") + b"nonsense",  # not JSON
            # JSON-tagged but not JSON, and a length over the limit: the
            # reader answers typed, then hangs up.
            len(b"{nonsense").to_bytes(4, "big") + b"{nonsense",
            (MAX_FRAME_BYTES + 1).to_bytes(4, "big"),
            frame([1, 2, 3]),  # not an object
            frame({"op": "frobnicate", "id": 1}),  # unknown op
            frame({"op": "query", "id": 2}),  # missing k/preference
            frame({"op": "query", "id": 3, "k": "ten", "preference": 0.5}),
            frame({"op": "query", "id": 4, "k": 5, "preference": "x"}),
            frame(
                {
                    "op": "query",
                    "id": 5,
                    "k": 10_000,  # past the bound
                    "preference": 0.5,
                }
            ),
            frame(
                {
                    "op": "query",
                    "id": 6,
                    "k": 5,
                    "preference": 0.5,
                    "deadline_ms": -3,
                }
            ),
        ]
        for raw in bad_frames:
            response = roundtrip_raw(raw)
            assert response is not None
            assert response["ok"] is False, raw
            assert response["error"]["type"] == "InvalidQueryError", raw

        # And through the typed client: server-reported errors re-raise
        # as the exact taxonomy type.
        from repro.errors import QueryTimeoutError
        from repro.serve import Client

        with Client(host, port) as client:
            with pytest.raises(InvalidQueryError):
                client.query(0.5, 10_000)
            with pytest.raises(QueryTimeoutError):
                client.query(0.5, 5, deadline=1e-9)


# -- what the frozen benchmark harness calls --------------------------------

#: Every library name ``benchmarks/e2e`` imports (module, name).  The
#: harness is frozen between benchmark PRs, so a simplification that
#: drops one of these must fail here rather than break the benchmark.
HARNESS_IMPORTS = [
    ("repro.baselines.fullscan", "FullScanTopK"),
    ("repro.core.delta", "DeltaStore"),
    ("repro.core.index", "QueryResult"),
    ("repro.core.index", "RankedJoinIndex"),
    ("repro.core.scoring", "Preference"),
    ("repro.core.tuples", "RankTuple"),
    ("repro.core.tuples", "RankTupleSet"),
    ("repro.datagen.synthetic", "correlated_pairs"),
    ("repro.datagen.synthetic", "uniform_pairs"),
    ("repro.errors", "ReproError"),
    ("repro.errors", "ServerConnectionError"),
    ("repro.obs", "NULL_RECORDER"),
    ("repro.obs", "FlightRecord"),
    ("repro.obs", "FlightRecorder"),
    ("repro.obs", "MetricsRecorder"),
    ("repro.obs", "RollingWindow"),
    ("repro.serve", "Client"),
    ("repro.serve", "QueryServer"),
    ("repro.serve.protocol", "Request"),
    ("repro.serve.protocol", "decode_request"),
    ("repro.serve.protocol", "decode_results"),
    ("repro.serve.protocol", "encode_results"),
    ("repro.serve.protocol", "read_frame"),
    ("repro.serve.protocol", "write_frame"),
    ("repro.storage.diskindex", "DiskRankedJoinIndex"),
    ("repro.storage.durable", "DurableRankedJoinIndex"),
    ("repro.storage.wal", "WriteAheadLog"),
]


@pytest.mark.parametrize("module,name", HARNESS_IMPORTS)
def test_harness_imports_resolve(module, name):
    assert hasattr(importlib.import_module(module), name)


def test_harness_calls_keep_working(tmp_path):
    """The calls ``benchmarks/e2e/layers.py`` and ``workloads.py`` make."""
    from repro.core.delta import DeltaStore
    from repro.core.index import RankedJoinIndex
    from repro.core.tuples import RankTuple
    from repro.serve import QueryServer
    from repro.serve.protocol import Request, decode_request, decode_results
    from repro.storage.durable import DurableRankedJoinIndex

    tuples = _tuples()
    index = RankedJoinIndex.build(tuples, 10)
    # replay_core: a delta filled first (DeltaStore.insert/delete with
    # an LSN), attached, merged into queries, detached.
    delta = DeltaStore()
    delta.insert(RankTuple(500, 2.0, 2.0), 1)
    delta.delete(int(index.dominating.tids[0]), 2)
    index.attach_delta(delta)
    assert index.query((0.5, 0.5), 3)[0].tid == 500
    assert index.detach_delta() is delta
    assert index.query((0.5, 0.5), 3)[0].tid != 500
    assert index.explain((0.5, 0.5), 3, record=False).n_results == 3
    assert index.logical_size_bytes() > 0 and index.stats.n_dominating > 0

    # replay_serve / replay_handle_write: handle_request on a server
    # that was never started; DurableSession: .delta, .compaction_pauses.
    durable = DurableRankedJoinIndex.create(
        tmp_path / "d", tuples, 10, compaction_threshold=2, fsync=True
    )
    try:
        server = QueryServer(durable)
        inserted = Request(op="insert", rid=1, tuple_=(900, 2.0, 2.0))
        assert server.handle_request(inserted) == {"applied": True}
        query = decode_request(
            {"op": "query", "id": 2, "preference": [0.5, 0.5], "k": 3}
        )
        results = decode_results(server.handle_request(query)["results"])
        assert results == durable.query((0.5, 0.5), 3)
        server.handle_request(Request(op="delete", rid=3, tid=900))
        assert isinstance(durable.delta.is_empty, bool)
        assert isinstance(durable.compaction_pauses, list)
        live = {t.tid for t in durable.live_tuples()}
    finally:
        durable.close()
    recovered = DurableRankedJoinIndex.recover(
        tmp_path / "d", compaction_threshold=2, fsync=True
    )
    try:
        assert {t.tid for t in recovered.live_tuples()} == live
        assert recovered.last_recovery.replayed >= 0
    finally:
        recovered.close()
