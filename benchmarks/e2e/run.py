"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python benchmarks/e2e/run.py                      # every workload
    python benchmarks/e2e/run.py --workload core-read --seed 11
    python benchmarks/e2e/run.py --trace              # per-layer numbers
    python benchmarks/e2e/run.py --repeat-check       # two sets must agree

Without ``--workload`` each workload runs in a fresh interpreter (RSS and
allocator state do not leak between them) and a summary is printed.
With ``--workload`` the run happens in this process and the last line of
stdout is the benchmark contract's JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics`` — every ``end_to_end`` metric
of ``BENCHMARK.json`` for ``--trace 0``, every ``per_layer`` metric for
``--trace 1``.  Exit status is non-zero when any answer was wrong.

See ``README.md`` for the glossary and ``spec.py`` for the registry.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
if not (SRC / "repro").is_dir():
    sys.exit(f"benchmarks/e2e: the program under test is missing ({SRC}/repro)")
sys.path.insert(0, str(SRC))

import layers  # noqa: E402
import spec  # noqa: E402
import workloads as w  # noqa: E402
from inputs import make_inputs  # noqa: E402
from stats import best  # noqa: E402
from tracing import Tracer, render_layer_table  # noqa: E402

from repro.core.index import RankedJoinIndex  # noqa: E402

WORK = HERE / "_work"
OUT = HERE / "_out"
#: Share of ``--seconds`` a server is driven before it is timed, so that
#: connections, allocator and the server's 10 s rolling window are warm.
WARMUP = 0.2


def _summarise(segments, metrics: dict) -> dict:
    """Latency and throughput of a timed section: its best segment."""
    metrics["query_p50_us"] = best([s.read_p50_us for s in segments])
    metrics["query_p99_us"] = best([s.read_p99_us for s in segments])
    metrics["throughput_qps"] = best([s.ops_per_s for s in segments], "higher")
    if segments[0].n_writes:
        metrics["write_p50_us"] = best([s.write_p50_us for s in segments])
        metrics["write_p99_us"] = best([s.write_p99_us for s in segments])
    return {
        "segments": len(segments),
        "reads_per_segment": segments[0].n_reads,
        "writes_per_segment": segments[0].n_writes,
    }


def run_untraced(name: str, run, seconds: float) -> tuple[dict, dict]:
    """One untraced run: every end-to-end metric ``name`` reports."""
    metrics: dict = {}
    if name in ("serve-read", "serve-mixed"):
        session = w.ServeSession(run, mixed=name == "serve-mixed")
        try:
            session.segments(WARMUP * seconds)
            segments = session.segments(seconds)
            calib = layers.calibrate()
            if session.mixed:
                session.probe()
            metrics["peak_rss_mb"] = session.report()["rss_kb"] / 1024.0
            if session.mixed:
                metrics["recover_ms"] = session.crash_and_recover()
            else:
                session.disconnect()
                metrics["shutdown_s"] = session.child.shutdown()["shutdown_s"]
        finally:
            session.close()
    elif name == "core-read":
        session = w.MemorySession(run)
        segments = session.segments(0.6 * seconds)
        batches = w.timed_segments(session.batch_segment, 0.4 * seconds)
        calib = layers.calibrate()
        metrics["batch_query_us"] = best([s.read_p50_us for s in batches])
        metrics["index_bytes"] = session.index.logical_size_bytes()
        metrics["peak_rss_mb"] = session.rss_mb
    elif name == "disk-read":
        session = w.DiskSession(run)
        try:
            segments = session.segments(seconds)
            calib = layers.calibrate()
            metrics["peak_rss_mb"] = session.rss_mb
            metrics["cold_open_ms"] = session.cold_open_ms()
            metrics["index_bytes"] = session.path.stat().st_size
        finally:
            session.close()
    else:
        session = w.DurableSession(run)
        try:
            segments = session.segments(seconds)
            calib = layers.calibrate()
            metrics["peak_rss_mb"] = w.peak_rss_mb()
            finished = session.finish()
            metrics["recover_ms"] = finished["recover_ms"]
            metrics["index_bytes"] = session.space[0]
        finally:
            session.close()
    metrics["setup_s"] = statistics.median(session.setup_s)
    extras = _summarise(segments, metrics)
    extras.update(calib, setups_s=session.setup_s)
    ledger = run.ledger
    metrics["failed_share"] = ledger.failed / ledger.attempted
    reported = {m.name for m in spec.e2e_for(name)}
    return {k: v for k, v in metrics.items() if k in reported}, extras


def run_traced(name: str, run, seconds: float) -> tuple[dict, dict]:
    """One traced run: every per-layer metric, spans, the layer table."""
    tracer = Tracer()
    quarter = seconds / 4
    index = RankedJoinIndex.build(run.inputs.tuples, run.inputs.shape.k_bound)
    metrics = layers.replay_layers(run, index, tracer)

    # The workload itself: a quarter untraced, a quarter traced.
    if name in ("serve-read", "serve-mixed"):
        session = w.ServeSession(
            run, mixed=name == "serve-mixed", traced=True, setups=1
        )
        try:
            session.segments(WARMUP * seconds)
            untraced = session.segments(quarter)
            if session.mixed:
                session.probe()
            live, traced = layers.serve_metrics(session, tracer, quarter, metrics)
        finally:
            session.close()
    elif name == "durable-mixed":
        session = w.DurableSession(run, setups=1)
        try:
            untraced = session.segments(quarter)
            live, traced = layers.durable_metrics(session, tracer, quarter)
        finally:
            session.close()
    else:
        session = (w.MemorySession if name == "core-read" else w.DiskSession)(
            run, setups=1
        )
        try:
            untraced = session.segments(quarter)
            live, traced = {}, session.segments(quarter, tracer)
        finally:
            session.close()
    metrics.update(live, **layers.calibrate())

    # What only a live server / durable index can tell, where the
    # workload has none of its own.
    if "serve.server.close_s" not in live:
        metrics.update(layers.serve_leg(run, tracer, seconds / 10, metrics))
    if "storage.durable.recover_ms" not in live:
        metrics.update(layers.durable_leg(run, tracer, seconds / 10))
    traced_p50 = best([s.read_p50_us for s in traced])
    untraced_p50 = best([s.read_p50_us for s in untraced])
    metrics["trace.overhead_ratio"] = traced_p50 / untraced_p50

    OUT.mkdir(exist_ok=True)
    tracer.write_chrome_trace(OUT / f"trace-{name}.json")
    table = tracer.layer_table()
    (OUT / f"layers-{name}.txt").write_text(render_layer_table(table) + "\n")
    extras = {
        "traced_query_p50_us": traced_p50,
        "untraced_query_p50_us": untraced_p50,
        "spans": len(tracer.spans),
        "span_file": str(OUT / f"trace-{name}.json"),
        "layer_table": table,
    }
    return metrics, extras


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    *,
    trace: bool = False,
    scale: float = 1.0,
    fault: str | None = None,
) -> dict:
    """Run one workload in this process; the full result record."""
    # One CPU for the generator, the server child and everything else the
    # run starts.  Across two vCPUs every thread hand-off is a cross-CPU
    # wake-up, and on this VM that costs 4 us or 40 us depending on the
    # hypervisor's adaptive halt-polling state: whole runs land 25% apart
    # (served p50 550 vs 760 us) for minutes at a time.  On one CPU some
    # thread of the closed loop is always runnable, the vCPU never halts,
    # and the same runs agree within ~3% -- and are faster.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = WORK / f"{os.getpid()}-{name}"
    run = w.Run(make_inputs(name, seed), workdir, scale=scale, fault=fault)
    try:
        runner = run_traced if trace else run_untraced
        metrics, extras = runner(name, run, seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    ledger = run.ledger
    return {
        "workload": name,
        "seed": seed,
        "trace": int(trace),
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "failures": ledger.notes,
        "metrics": {
            k: {"value": v, "unit": spec.UNITS[k]} for k, v in metrics.items()
        },
        "extras": extras,
    }


def contract_line(result: dict) -> str:
    """The benchmark contract's last line of stdout."""
    wanted = spec.PER_LAYER_NAMES if result["trace"] else spec.CONTRACT_E2E_NAMES
    return json.dumps(
        {
            "correct": result["correct"],
            "attempted": result["attempted"],
            "failed": result["failed"],
            "metrics": {name: result["metrics"][name] for name in wanted},
        }
    )


def print_result(result: dict) -> None:
    extras = result["extras"]
    print(f"== {result['workload']} (seed {result['seed']}, trace {result['trace']})")
    if "segments" in extras:
        print(
            f"   {extras['segments']} timed segments x "
            f"{extras['reads_per_segment']} reads + "
            f"{extras['writes_per_segment']} writes; best segment reported"
        )
    for name, metric in result["metrics"].items():
        print(f"   {name:<48} {metric['value']:>16.6g} {metric['unit']}")
    for name in ("calib.wake_rtt_us", "calib.pyloop_us"):
        if name in extras:
            print(f"   ({name:<46} {extras[name]:>16.6g} us)")
    if "layer_table" in extras:
        print(render_layer_table(extras["layer_table"]))
        print(f"   spans: {extras['spans']} -> {extras['span_file']}")
    print(f"   attempted {result['attempted']}, failed {result['failed']}")
    for note in result["failures"]:
        print(f"   FAILED: {note}")


def run_set(names, seed: int, seconds: float, trace: bool, fault=None) -> list[dict]:
    """Each workload in a fresh interpreter; their full result records."""
    WORK.mkdir(exist_ok=True)
    results = []
    for name in names:
        record = WORK / f"{os.getpid()}-{name}-{int(trace)}.json"
        command = [
            sys.executable, str(HERE / "run.py"),
            "--workload", name, "--seed", str(seed),
            "--seconds", str(seconds), "--trace", str(int(trace)),
            "--json", str(record),
        ]  # fmt: skip
        if fault:
            command += ["--inject", fault]
        try:
            done = subprocess.run(command, stdout=subprocess.PIPE, text=True)
            # Echo the child's report without its last (contract JSON) line.
            sys.stdout.write(done.stdout.rsplit("\n", 2)[0] + "\n")
            if not record.exists():
                sys.exit(f"workload {name} exited {done.returncode} with no result")
            results.append(json.loads(record.read_text())[0])
        finally:
            record.unlink(missing_ok=True)
    return results


def repeat_check(names, seed: int, seconds: float) -> int:
    """Two full sets back to back; every gap must be within its bound."""
    sets = [
        run_set(names, seed, seconds, trace) for _ in range(2) for trace in (0, 1)
    ]
    exact = {m.name for m in spec.PER_LAYER if m.exact}
    bounds = {m.name: m.bound for m in spec.END_TO_END}
    bad = 0
    print(f"\n{'workload':<14} {'metric':<44} {'first':>14} {'second':>14} gap bound")
    for first, second in zip(sets[0] + sets[1], sets[2] + sets[3]):
        bad += not (first["correct"] and second["correct"])
        for name, metric in first["metrics"].items():
            a, b = metric["value"], second["metrics"][name]["value"]
            if first["trace"] and name not in exact:
                continue
            bound = 0.0 if first["trace"] else bounds[name]
            gap = abs(a - b) / max(abs(a), abs(b)) if a != b else 0.0
            verdict = "ok" if gap <= bound else "EXCEEDS"
            bad += gap > bound
            print(
                f"{first['workload']:<14} {name:<44} {a:>14.6g} {b:>14.6g} "
                f"{gap:6.3f} {bound:5.2f} {verdict}"
            )
    print("repeat-check:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=spec.WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=spec.DEFAULT_SEED)
    parser.add_argument(
        "--seconds", type=float, default=spec.RUN_SECONDS,
        help="length of one workload's timed section",
    )  # fmt: skip
    parser.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="traced run: per-layer metrics, span file, layer table",
    )  # fmt: skip
    parser.add_argument("--json", metavar="OUT", help="write full results here")
    parser.add_argument(
        "--repeat-check", action="store_true",
        help="run two sets back to back and compare them against the bounds",
    )  # fmt: skip
    parser.add_argument(
        "--inject", choices=("corrupt-reference", "refuse-write"),
        help="harness self-test: the run must count the fault and exit non-zero",
    )  # fmt: skip
    args = parser.parse_args(argv)
    names = [args.workload] if args.workload else list(spec.WORKLOAD_NAMES)

    if args.repeat_check:
        return repeat_check(names, args.seed, args.seconds)
    if args.workload:
        results = [
            run_workload(
                args.workload, args.seed, args.seconds,
                trace=bool(args.trace), fault=args.inject,
            )
        ]  # fmt: skip
        print_result(results[0])
    else:
        results = run_set(names, args.seed, args.seconds, args.trace, args.inject)
    if args.json:
        Path(args.json).write_text(json.dumps(results, indent=1))
    if args.workload:
        print(contract_line(results[0]))
    correct = all(r["correct"] for r in results)
    if not args.workload:
        failed = sum(r["failed"] for r in results)
        attempted = sum(r["attempted"] for r in results)
        print(f"\n{len(results)} workloads, attempted {attempted}, failed {failed}")
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
