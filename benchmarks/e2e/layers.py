"""Per-layer numbers: the layer functions replayed in wire order.

A traced run replays requests in-process through each layer's public
functions — client encode + request frame -> ``decode_request`` ->
``handle_request`` -> response frame -> ``decode_results`` for the
serving tier; ``query`` / ``query_batch`` / ``explain`` for core;
``save`` / ``open`` / ``query`` for the disk image; ``append`` /
``commit`` for the WAL — with one span per call, so each per-layer
metric is the p50 of a named span.  The replay runs on the traced
workload's own data.  Numbers that only exist on a live server or a
live durable index come from the workload's own traced session when it
has one, and otherwise from a short session over the same data
(:func:`serve_leg`, :func:`durable_leg`): every traced run reports every
per-layer metric, as the benchmark contract requires.
"""

from __future__ import annotations

import socket
import threading
import time
from dataclasses import replace
from pathlib import Path

from stats import best, nearest_rank, p50
from tracing import Tracer
from workloads import (
    COMPACTION_THRESHOLD,
    N_CLIENTS,
    DurableSession,
    Run,
    ServeSession,
    cold_open,
    dir_bytes,
    open_image,
)

from repro.core.delta import DeltaStore
from repro.core.index import RankedJoinIndex
from repro.obs import FlightRecord, FlightRecorder, MetricsRecorder, RollingWindow
from repro.serve import QueryServer
from repro.serve.protocol import (
    Request,
    decode_request,
    decode_results,
    encode_results,
    read_frame,
    write_frame,
)
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.durable import DurableRankedJoinIndex
from repro.storage.wal import WriteAheadLog

clock = time.perf_counter

#: The wire stages whose p50s, plus the residual, make up a served read.
WIRE_STAGES = (
    "serve.protocol.request_frame",
    "serve.protocol.decode_request",
    "serve.server.handle_request",
    "serve.protocol.response_frame",
    "serve.protocol.decode_results",
)


def _frame_roundtrip(sender, receiver, payload: dict) -> dict:
    write_frame(sender, payload)
    return read_frame(receiver)


def replay_serve(run: Run, index, tracer: Tracer, n: int) -> dict:
    """One ``query`` request through every serve-layer function, in order."""
    k = run.inputs.shape.k
    server = QueryServer(index)  # never started: handle_request only
    left, right = socket.socketpair()
    answers = []

    def one_request(rid: int, p):
        wire = {
            "op": "query",
            "preference": [p.p1, p.p2],
            "k": k,
            "id": rid,
            "trace": f"c-{rid}",
        }
        payload = tracer.call(WIRE_STAGES[0], rid, _frame_roundtrip, left, right, wire)
        request = tracer.call(WIRE_STAGES[1], rid, decode_request, payload)
        body = tracer.call(WIRE_STAGES[2], rid, server.handle_request, request)
        response = {"id": rid, "ok": True, "trace": request.trace, **body}
        raw = tracer.call(WIRE_STAGES[3], rid, _frame_roundtrip, right, left, response)
        return tracer.call(WIRE_STAGES[4], rid, decode_results, raw["results"])

    try:
        for rid, p in enumerate(run.inputs.preferences(n, 8)):
            answers.append(tracer.call("replay.request", rid, one_request, rid, p))
    finally:
        left.close()
        right.close()
    # encode_results runs inside handle_request; timed again on its own.
    for rid, answer in enumerate(answers):
        tracer.call("serve.protocol.encode_results", rid, encode_results, answer)
    metrics = {f"{name}_us": tracer.p50_us(name) for name in WIRE_STAGES}
    metrics["serve.protocol.encode_results_us"] = tracer.p50_us(
        "serve.protocol.encode_results"
    )
    return metrics


def replay_handle_write(run: Run, workdir: Path, tracer: Tracer, n: int) -> dict:
    """``handle_request`` for insert/delete on an unstarted durable server."""
    shape = run.inputs.shape
    durable = DurableRankedJoinIndex.create(
        workdir / "handle-write",
        run.inputs.tuples,
        shape.k_bound,
        compaction_threshold=COMPACTION_THRESHOLD,
        fsync=True,
    )
    try:
        server = QueryServer(durable)
        stream = run.inputs.write_stream(N_CLIENTS + 1)
        for rid in range(n):
            op, payload = stream.next()
            request = (
                Request(op=op, rid=rid, tuple_=tuple(payload))
                if op == "insert"
                else Request(op=op, rid=rid, tid=payload)
            )
            tracer.call(
                "serve.server.handle_write", rid, server.handle_request, request
            )
    finally:
        durable.close()
    return {
        "serve.server.handle_write_us": tracer.p50_us("serve.server.handle_write")
    }


def replay_core(run: Run, index: RankedJoinIndex, tracer: Tracer, n: int) -> dict:
    shape = run.inputs.shape
    k, prefs = shape.k, run.inputs.preferences(n, 8)
    for rid, p in enumerate(prefs):
        tracer.call("core.index.query", rid, index.query, p, k)
    for rid in range(0, len(prefs) - 63, 64):
        tracer.call(
            "core.index.query_batch", rid, index.query_batch, prefs[rid : rid + 64], k
        )
    explains = [index.explain(p, k, record=False) for p in prefs]

    # A fixed small delta: 10 buffered inserts, 5 tombstones of base rows.
    delta = DeltaStore()
    stream = run.inputs.write_stream(N_CLIENTS + 2, lag=10**9)
    for lsn in range(10):
        delta.insert(stream.next()[1], lsn)
    for lsn, tid in enumerate(run.inputs.tuples.tids[:5].tolist(), start=10):
        delta.delete(tid, lsn)
    index.attach_delta(delta)
    try:
        for rid, p in enumerate(prefs):
            tracer.call("core.index.query+delta", rid, index.query, p, k)
    finally:
        index.detach_delta()

    build = index.stats
    return {
        "core.build.dominating_s": build.time_dominating,
        "core.build.separating_s": build.time_separating,
        "core.build.load_s": build.time_load,
        "core.build.n_dominating": build.n_dominating,
        "core.build.n_events": build.n_events,
        "core.build.pairs_considered": build.pairs_considered,
        "core.build.n_regions": build.n_regions,
        "core.index.query_us": tracer.p50_us("core.index.query"),
        "core.index.query_p99_us": nearest_rank(
            sorted(tracer.durations_us("core.index.query")), 99
        ),
        "core.index.query_batch_us": tracer.p50_us("core.index.query_batch") / 64,
        "core.index.descent_steps": sum(e.descent_depth for e in explains)
        / len(explains),
        "core.index.tuples_evaluated_per_result": sum(
            e.tuples_evaluated for e in explains
        )
        / sum(e.n_results for e in explains),
        "core.index.logical_bytes": index.logical_size_bytes(),
        "core.delta.merge_us": tracer.p50_us("core.index.query+delta")
        - tracer.p50_us("core.index.query"),
    }


def replay_storage(
    run: Run, index: RankedJoinIndex, workdir: Path, tracer: Tracer, n: int
) -> dict:
    """save / open (mmap, eager, cold) / query on this workload's image."""
    k, prefs = run.inputs.shape.k, run.inputs.preferences(n, 8)
    path = workdir / "replay.rji"
    repeats = max(3, n // 100)
    for rid in range(min(repeats, 5)):
        tracer.call(
            "storage.diskindex.save", rid, lambda: DiskRankedJoinIndex(index).save(path)
        )
    for rid in range(repeats):
        tracer.call("storage.diskindex.open_mmap", rid, open_image, path).pager.close()
        tracer.call("storage.diskindex.open_eager", rid, DiskRankedJoinIndex.open, path)
        tracer.call("storage.diskindex.cold_open", rid, cold_open, path, prefs[0], k)
    disk = open_image(path)
    reads = nodes = 0
    try:
        for rid, p in enumerate(prefs):
            tracer.call("storage.diskindex.query", rid, disk.query, p, k)
            reads += disk.last_query.pages_read
            nodes += disk.last_query.btree_nodes
        hit_rate = disk.pool.hit_rate
    finally:
        disk.pager.close()
    return {
        "storage.diskindex.query_us": tracer.p50_us("storage.diskindex.query"),
        "storage.diskindex.query_p99_us": nearest_rank(
            sorted(tracer.durations_us("storage.diskindex.query")), 99
        ),
        "storage.pager.reads_per_query": reads / len(prefs),
        "storage.btree.nodes_per_query": nodes / len(prefs),
        "storage.buffer.hit_rate": hit_rate,
        "storage.diskindex.open_mmap_ms": tracer.p50_us("storage.diskindex.open_mmap")
        / 1e3,
        "storage.diskindex.open_eager_ms": tracer.p50_us(
            "storage.diskindex.open_eager"
        )
        / 1e3,
        "storage.diskindex.cold_open_ms": min(
            tracer.durations_us("storage.diskindex.cold_open")
        )
        / 1e3,
        "storage.diskindex.save_ms": tracer.p50_us("storage.diskindex.save") / 1e3,
        "storage.diskindex.image_bytes": path.stat().st_size,
    }


def replay_wal(run: Run, workdir: Path, tracer: Tracer, n: int) -> dict:
    """append + commit (fsync on), one record per commit as the write path does."""
    metrics = MetricsRecorder()
    wal = WriteAheadLog(workdir / "replay-wal", fsync=True, recorder=metrics)
    try:
        before = dir_bytes(wal.directory)
        stream = run.inputs.write_stream(N_CLIENTS + 3, lag=10**9)
        for rid in range(n):
            tid, s1, s2 = stream.next()[1]
            tracer.call("storage.wal.append", rid, wal.append_insert, tid, s1, s2)
            tracer.call("storage.wal.commit", rid, wal.commit)
        written = dir_bytes(wal.directory) - before
    finally:
        wal.close()
    return {
        "storage.wal.append_us": tracer.p50_us("storage.wal.append"),
        "storage.wal.commit_us": tracer.p50_us("storage.wal.commit"),
        "storage.wal.fsyncs_per_commit": metrics.counter("wal.fsyncs")
        / metrics.counter("wal.commits"),
        "storage.wal.bytes_per_write": written / n,
    }


def replay_obs(run: Run, index: RankedJoinIndex, tracer: Tracer, n: int) -> dict:
    """What the always-on telemetry costs per request, by direct calls."""
    shape = run.inputs.shape
    k, prefs = shape.k, run.inputs.preferences(n, 8)
    recorded = RankedJoinIndex.build(
        run.inputs.tuples, shape.k_bound, recorder=MetricsRecorder()
    )
    # Interleaved, so both sides see the same sandbox regime.
    for rid, p in enumerate(prefs):
        tracer.call("obs.query.null", rid, index.query, p, k)
        tracer.call("obs.query.metrics", rid, recorded.query, p, k)
    window, flight = RollingWindow(), FlightRecorder()
    for rid in range(len(prefs)):
        tracer.call("obs.window.record", rid, window.record, 1e-4, "ok")
        record = FlightRecord(
            trace=f"c-{rid}", op="query", k=k, outcome="ok", latency_s=1e-4
        )
        tracer.call("obs.flight.record", rid, flight.record, record)
    return {
        "obs.recorder.metrics_over_null": tracer.p50_us("obs.query.metrics")
        / tracer.p50_us("obs.query.null"),
        "obs.window.record_us": tracer.p50_us("obs.window.record"),
        "obs.flight.record_us": tracer.p50_us("obs.flight.record"),
    }


def replay_layers(run: Run, index: RankedJoinIndex, tracer: Tracer) -> dict:
    """Every direct-call layer metric, on this workload's data."""
    n, workdir = run.sized(2000), run.workdir
    workdir.mkdir(parents=True, exist_ok=True)
    return {
        **replay_serve(run, index, tracer, n),
        **replay_handle_write(run, workdir, tracer, min(n, 40)),
        **replay_core(run, index, tracer, n),
        **replay_storage(run, index, workdir, tracer, n),
        **replay_wal(run, workdir, tracer, run.sized(400)),
        **replay_obs(run, index, tracer, n),
    }


# -- live sessions -----------------------------------------------------------


def serve_metrics(
    session: ServeSession, tracer: Tracer, seconds: float, replayed: dict
) -> tuple[dict, list]:
    """Traced segments on a live server; what only the server can tell.

    Ends the session with a timed ``close()`` in the child.  ``replayed``
    holds the wire stages' p50s: the served p50 minus their sum is the
    residual.  Returns the metrics and the traced segments.
    """
    before, cpu_before = session.report(), time.process_time()
    segments = session.segments(seconds, tracer)
    after, cpu_after = session.report(), time.process_time()
    session.disconnect()
    closed = session.child.shutdown()
    requests = after["server"]["requests"] - before["server"]["requests"]
    window = after["window"]
    served_p50 = best([s.read_p50_us for s in segments])
    return {
        "serve.client.query_p50_us": served_p50,
        "serve.transport_residual_us": served_p50
        - sum(replayed[f"{stage}_us"] for stage in WIRE_STAGES),
        "serve.client.query_p99_us": p50([s.read_p99_us for s in segments]),
        "serve.server.cpu_us_per_request": (after["cpu_s"] - before["cpu_s"])
        / requests
        * 1e6,
        "serve.client.cpu_us_per_request": (cpu_after - cpu_before) / requests * 1e6,
        "serve.server.batch_mean": after["batch_mean"],
        "serve.server.queue_depth_mean": after["queue_depth_mean"],
        "serve.server.window_p50_us": window["p50_s"] * 1e6,
        "serve.server.window_dropped_share": window["dropped"]
        / max(1, window["count"]),
        "serve.server.shed_share": after["server"]["shed"]
        / after["server"]["requests"],
        "serve.server.error_share": after["server"]["errors"]
        / after["server"]["requests"],
        "serve.server.threads_leaked": len(closed["threads_leaked"]),
        "serve.server.close_s": closed["shutdown_s"],
    }, segments


def serve_leg(run: Run, tracer: Tracer, seconds: float, replayed: dict) -> dict:
    """A short read-only served session over a non-serve workload's data."""
    leg = replace(run, workdir=run.workdir / "serve-leg", scale=run.scale * 0.4)
    session = ServeSession(leg, mixed=False, traced=True, setups=1)
    try:
        session.segments(seconds / 2)  # warm-up
        return serve_metrics(session, tracer, seconds, replayed)[0]
    finally:
        session.close()


def durable_metrics(
    session: DurableSession, tracer: Tracer, seconds: float
) -> tuple[dict, list]:
    """Traced segments on a live durable index, then close + recover."""
    segments = session.segments(seconds, tracer)
    finished = session.finish()
    pauses = finished["pauses_s"]
    return {
        "storage.durable.write_p50_us": best([s.write_p50_us for s in segments]),
        "storage.durable.write_p99_us": best([s.write_p99_us for s in segments]),
        "storage.durable.write_nocompact_us": p50(session.nocompact_s) * 1e6,
        "storage.durable.compact_ms": p50(pauses) * 1e3 if pauses else 0.0,
        "storage.durable.compactions_per_1k_writes": len(pauses)
        / session.n_writes
        * 1e3,
        "storage.durable.pause_share": sum(pauses) / session.loop_s,
        "storage.durable.bytes_rewritten_per_compaction": finished["rewritten_bytes"],
        "storage.durable.recover_ms": finished["recover_ms"],
        "storage.durable.recover_replayed": finished["replayed"],
        "storage.durable.dir_bytes_per_live_tuple": session.space[0]
        / session.space[1],
        "core.delta.merged_share": session.n_merged / session.n_traced_reads,
    }, segments


def durable_leg(run: Run, tracer: Tracer, seconds: float) -> dict:
    """A short durable session over a non-durable workload's data."""
    leg = replace(run, workdir=run.workdir / "durable-leg", scale=run.scale * 0.2)
    session = DurableSession(leg, setups=1)
    try:
        return durable_metrics(session, tracer, seconds)[0]
    finally:
        session.close()


# -- calibration -------------------------------------------------------------


def calibrate(rounds: int = 2000) -> dict:
    """Two probes of the sandbox itself, taken right after a timed section.

    ``calib.wake_rtt_us`` is a two-thread socketpair echo (the cross-thread
    wake-up every server hand-off pays); ``calib.pyloop_us`` a fixed
    pure-Python score-and-sort (the interpreter's speed).  They let a
    reader tell a sandbox regime shift from a program change; neither
    normalises any metric.
    """
    left, right = socket.socketpair()

    def echo() -> None:
        while data := right.recv(1):
            right.sendall(data)

    thread = threading.Thread(target=echo, name="e2e-calib-echo")
    thread.start()
    rtts = []
    try:
        for _ in range(rounds):
            started = clock()
            left.sendall(b"x")
            left.recv(1)
            rtts.append(clock() - started)
    finally:
        left.close()
        thread.join()
        right.close()

    rows = [((i * 37) % 101 / 1.01, (i * 53) % 103 / 1.03, -i) for i in range(64)]
    loops = []
    for i in range(rounds):
        p1, p2 = 0.3 + (i % 7) / 10.0, 0.9 - (i % 5) / 10.0
        started = clock()
        scored = [(p1 * s1 + p2 * s2, s1, t) for s1, s2, t in rows]
        scored.sort(reverse=True)
        loops.append(clock() - started)
    return {
        "calib.wake_rtt_us": p50(rtts) * 1e6,
        "calib.pyloop_us": p50(loops) * 1e6,
    }
