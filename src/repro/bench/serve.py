"""The closed-loop serving benchmark: ``python -m repro.bench --serve``.

Boots a real :class:`~repro.serve.QueryServer` over a seeded index,
drives it with ``n_clients`` closed-loop workers (one
:class:`~repro.serve.Client` each, next request only after the previous
response), and reports:

* **throughput** — sustained queries/second across the whole run;
* **latency** — per-request round-trip p50/p99/mean/max;
* **server internals** — the queue-depth series plus the lifetime
  ``serve.*`` counters, straight from the server's
  :class:`~repro.obs.MetricsRecorder`;
* **correctness** — every remote answer is compared against the
  precomputed in-process answer for the same preference; any mismatch
  lands in the *gated* ``query_counters`` section (baseline zero, so
  the CI compare gate fails on the first wrong byte).

A second **chaos phase** reruns the loop against an index slowed
through :class:`repro.faults.LatencyRecorder` behind a deliberately
tiny admission queue, under per-request deadlines.  The contract under
overload: every request resolves to a correct answer *or* a typed
:class:`~repro.errors.ServerOverloadedError` /
:class:`~repro.errors.QueryTimeoutError` — no hung clients, no partial
answers, nothing untyped.  Violations are gated counters too.

Shed/timeout *counts* are timing-dependent, so they live in the
ungated ``serve``/``chaos`` report sections; only the deterministic
zero-on-healthy counters are gated.

Both phases run with end-to-end tracing on: every client carries a
seeded :class:`~repro.obs.TraceIdGenerator`, every response must echo
the request's trace id (``serve.trace_failures``, gated at zero), and
the server must see zero untraced requests (``serve.untraced_requests``,
gated at zero) — proving the trace plumbing costs nothing and loses
nothing under concurrent load.  The load phase also exercises the
``stats`` and ``dump`` admin ops and ships the server's flight-recorder
dump in the report (``python -m repro.bench --serve`` writes it to
``FLIGHT_serve.json`` for the CI failure artifact).
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass

from ..core.index import RankedJoinIndex
from ..datagen.preferences import random_preferences
from ..errors import (
    QueryTimeoutError,
    ReproError,
    ServerOverloadedError,
)
from ..faults import FaultInjector, FaultPlan, FaultSpec, LatencyRecorder
from ..obs import MetricsRecorder
from ..serve import Client, QueryServer
from .runner import BenchConfig, _make_tuples, _percentiles

__all__ = ["SERVE_CONFIG", "ServeBenchConfig", "run_serve_benchmark"]


@dataclass(frozen=True, slots=True)
class ServeBenchConfig:
    """One fully-seeded serving scenario (load phase + chaos phase)."""

    name: str = "serve"
    dataset: str = "uniform"
    n_tuples: int = 5000
    k_bound: int = 20
    k_query: int = 10
    seed: int = 7
    n_clients: int = 4
    queries_per_client: int = 1000
    queue_bound: int = 1024
    #: chaos phase: injected per-query latency, starved queue, deadlines
    chaos_queries_per_client: int = 100
    chaos_queue_bound: int = 2
    chaos_delay_s: float = 0.004
    chaos_deadline_s: float = 0.5


#: The default (and CI smoke) serving scenario.
SERVE_CONFIG = ServeBenchConfig()


def _build_index(config: ServeBenchConfig, recorder=None) -> RankedJoinIndex:
    bench_like = BenchConfig(
        dataset=config.dataset,
        n_tuples=config.n_tuples,
        k_bound=config.k_bound,
        seed=config.seed,
    )
    kwargs = {} if recorder is None else {"recorder": recorder}
    return RankedJoinIndex.build(
        _make_tuples(bench_like), config.k_bound, **kwargs
    )


def _client_workloads(config: ServeBenchConfig, n_queries: int):
    """Per-client preference lists, seeded apart."""
    return [
        random_preferences(n_queries, seed=config.seed + 101 * (i + 1))
        for i in range(config.n_clients)
    ]


def _reference_answers(index: RankedJoinIndex, workloads, k: int):
    """In-process scalar answers every remote answer must equal."""
    return [
        [index.query(preference, k) for preference in workload]
        for workload in workloads
    ]


def _run_load_phase(config: ServeBenchConfig, index, workloads, references):
    """Closed-loop clients against a healthy server; returns phase stats."""
    metrics = MetricsRecorder()
    latencies: list[list[float]] = [[] for _ in workloads]
    mismatches = [0] * len(workloads)
    trace_failures = [0] * len(workloads)
    failures: list[str] = []
    failures_lock = threading.Lock()

    with QueryServer(
        index,
        port=0,
        queue_bound=config.queue_bound,
        recorder=metrics,
        trace_seed=config.seed,
    ) as server:
        host, port = server.address

        def worker(slot: int) -> None:
            try:
                with Client(
                    host, port, trace_seed=config.seed + 1009 * (slot + 1)
                ) as client:
                    expected = references[slot]
                    for qid, preference in enumerate(workloads[slot]):
                        started = time.perf_counter()
                        answer = client.query(preference, config.k_query)
                        latencies[slot].append(
                            time.perf_counter() - started
                        )
                        if answer != expected[qid]:
                            mismatches[slot] += 1
                        # _roundtrip raises on a *wrong* echo; a missing
                        # trace id here means the contract quietly broke.
                        trace = client.last_trace_id
                        if not trace or not trace.startswith("c-"):
                            trace_failures[slot] += 1
            except ReproError as exc:
                with failures_lock:
                    failures.append(f"client {slot}: {exc!r}")

        threads = [
            threading.Thread(
                target=worker, args=(slot,), name=f"bench-client-{slot}"
            )
            for slot in range(config.n_clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        wall = time.perf_counter() - started
        hung = sum(thread.is_alive() for thread in threads)
        stats = server.stats()
        # The admin ops ride the same wire (and are themselves traced):
        # the rolling-window/flight view a live `repro.obs top` would see.
        with Client(host, port, trace_seed=config.seed + 31) as admin:
            stats_op = admin.stats()
            flight = admin.dump()

    flat = [sample for per_client in latencies for sample in per_client]
    n_done = len(flat)
    snapshot = metrics.snapshot()
    return {
        "wall_seconds": wall,
        "n_queries": n_done,
        "throughput_qps": (n_done / wall) if wall > 0 else 0.0,
        "latency": _percentiles(flat) if flat else {},
        "queue_depth": asdict(metrics.series("serve.queue_depth")),
        "server": stats,
        "counters": snapshot["counters"],
        "mismatches": sum(mismatches),
        "client_failures": failures,
        "hung_clients": hung,
        "trace_failures": sum(trace_failures),
        "untraced_requests": stats_op["lifetime"]["untraced"],
        "window": stats_op["window"],
        "flight_summary": stats_op["flight"],
        "flight": flight,
    }


def _run_chaos_phase(config: ServeBenchConfig, workloads, references):
    """Overload a slowed server; every request must resolve typed."""
    plan = FaultPlan(
        name="serve-slow-index",
        seed=config.seed,
        specs=(
            FaultSpec(
                target="recorder",
                kind="latency",
                every=1,
                delay_s=config.chaos_delay_s,
            ),
        ),
    )
    injector = FaultInjector(plan)
    slow_index = _build_index(config, recorder=LatencyRecorder(injector))
    outcomes = {"ok": 0, "shed": 0, "timeout": 0}
    mismatches = [0] * len(workloads)
    unexpected: list[str] = []
    lock = threading.Lock()

    with QueryServer(
        slow_index,
        port=0,
        queue_bound=config.chaos_queue_bound,
    ) as server:
        host, port = server.address

        def worker(slot: int) -> None:
            with Client(
                host, port, trace_seed=config.seed + 2003 * (slot + 1)
            ) as client:
                expected = references[slot]
                n = config.chaos_queries_per_client
                for qid, preference in enumerate(workloads[slot][:n]):
                    try:
                        answer = client.query(
                            preference,
                            config.k_query,
                            deadline=config.chaos_deadline_s,
                        )
                    except ServerOverloadedError:
                        with lock:
                            outcomes["shed"] += 1
                    except QueryTimeoutError:
                        with lock:
                            outcomes["timeout"] += 1
                    except Exception as exc:
                        # The contract under test is "typed errors
                        # only"; anything else is the violation being
                        # counted.
                        with lock:
                            unexpected.append(
                                f"client {slot} query {qid}: {exc!r}"
                            )
                    else:
                        with lock:
                            outcomes["ok"] += 1
                        if answer != expected[qid]:
                            mismatches[slot] += 1

        threads = [
            threading.Thread(
                target=worker, args=(slot,), name=f"chaos-client-{slot}"
            )
            for slot in range(config.n_clients)
        ]
        started = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=300.0)
        wall = time.perf_counter() - started
        hung = sum(thread.is_alive() for thread in threads)
        stats = server.stats()
        # Shed/timed-out requests make this the flight recorder's
        # worst-case diet: every non-ok outcome retains its detail.
        flight_summary = server.flight.summary()

    return {
        "wall_seconds": wall,
        "outcomes": outcomes,
        "faults_injected": injector.n_injected,
        "server": stats,
        "flight_summary": flight_summary,
        "mismatches": sum(mismatches),
        "unexpected_errors": unexpected,
        "hung_clients": hung,
    }


def run_serve_benchmark(config: ServeBenchConfig = SERVE_CONFIG) -> dict:
    """Run the serving scenario; returns the JSON-ready report.

    The ``query_counters`` section carries only values that are
    deterministic for a seeded config (and zero on healthy serving), so
    the standard ``--compare`` gate applies unchanged.  Timing-shaped
    observations (throughput, shed counts) are reported but never
    gated.
    """
    index = _build_index(config)
    workloads = _client_workloads(config, config.queries_per_client)
    references = _reference_answers(index, workloads, config.k_query)

    load = _run_load_phase(config, index, workloads, references)
    chaos = _run_chaos_phase(config, workloads, references)

    # The full flight dump is bulky and timing-shaped; keep it out of
    # the committed report sections.  `python -m repro.bench --serve`
    # pops it into FLIGHT_serve.json for the CI failure artifact.
    flight = load.pop("flight")

    return {
        "schema_version": 1,
        "config": asdict(config),
        "serve": load,
        "chaos": chaos,
        "flight": flight,
        "query_counters": {
            "serve.mismatches": load["mismatches"],
            "serve.client_failures": len(load["client_failures"]),
            "serve.hung_clients": load["hung_clients"],
            "serve.trace_failures": load["trace_failures"],
            "serve.untraced_requests": load["untraced_requests"],
            "serve.chaos_mismatches": chaos["mismatches"],
            "serve.chaos_unexpected_errors": len(
                chaos["unexpected_errors"]
            ),
            "serve.chaos_hung_clients": chaos["hung_clients"],
        },
    }
