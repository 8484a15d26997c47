"""``python -m repro.bench`` — run a benchmark scenario or compare two.

The CI smoke job runs ``python -m repro.bench --smoke`` and then gates
the fresh report against the committed baseline with
``python -m repro.bench --compare benchmarks/BENCH_baseline_smoke.json
BENCH_smoke.json``; a non-zero exit means a gated counter regressed
past the threshold.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .compare import (
    ComparisonError,
    compare_reports,
    load_report,
    render_comparison,
)
from .runner import (
    BUILD_HEAVY_CONFIG,
    SMOKE_CONFIG,
    BenchConfig,
    run_benchmark,
    write_report,
)

__all__ = ["main"]


def _run_compare(args: argparse.Namespace) -> int:
    old_path, new_path = args.compare
    try:
        comparison = compare_reports(
            load_report(old_path),
            load_report(new_path),
            threshold=args.threshold,
            gate_time=args.gate_time,
            time_threshold=args.time_threshold,
        )
    except ComparisonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    print(render_comparison(comparison))
    return 0 if comparison.ok else 1


def _run_chaos(args: argparse.Namespace) -> int:
    from ..faults import FaultPlanError
    from .chaos import load_plan, run_chaos_benchmark

    try:
        plan = load_plan(args.faults)
    except (FaultPlanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    name = args.name or f"faults_{plan.name}"
    if args.mmap and args.name is None:
        name += "_mmap"
    config = replace(
        SMOKE_CONFIG,
        name=name,
        seed=args.seed,
        cache_size=args.cache_size,
    )
    report = run_chaos_benchmark(plan, config, mmap=args.mmap)
    path = write_report(report, args.out)
    summary = {
        "report": str(path),
        "plan": plan.name,
        "mmap": args.mmap,
        "faults_injected": report["faults_injected"],
        **report["outcomes"],
        "typed_errors": report["typed_errors"],
    }
    for outcome in ("correct", "typed_error"):
        if report[f"{outcome}_latency"]:
            summary[f"{outcome}_p50_us"] = round(
                report[f"{outcome}_latency"]["p50_s"] * 1e6, 1
            )
    print(json.dumps(summary))
    return 0


def _run_open(args: argparse.Namespace) -> int:
    from .openbench import OPEN_CONFIG, run_open_benchmark

    config = replace(
        OPEN_CONFIG,
        name=args.name or OPEN_CONFIG.name,
        seed=args.seed if args.seed != SMOKE_CONFIG.seed else OPEN_CONFIG.seed,
        cache_size=args.cache_size or OPEN_CONFIG.cache_size,
    )
    report = run_open_benchmark(config)
    path = write_report(report, args.out)
    open_section = report["open"]
    summary = {
        "report": str(path),
        "file_bytes": open_section["file_bytes"],
        "eager_open_ms": round(open_section["eager_open_s"] * 1e3, 3),
        "mmap_open_ms": round(open_section["mmap_open_s"] * 1e3, 3),
        "open_speedup": round(open_section["open_speedup"], 1),
        "cache_hits": report["cache"]["hits"],
        "cache_misses": report["cache"]["misses"],
    }
    print(json.dumps(summary))
    return 0


def _run_mixed(args: argparse.Namespace) -> int:
    from ..core.writepath import TRIGGERS
    from .mixed import MIXED_CONFIG, run_mixed_benchmark

    config = replace(
        MIXED_CONFIG,
        name=args.name or MIXED_CONFIG.name,
        seed=args.seed if args.seed != SMOKE_CONFIG.seed else MIXED_CONFIG.seed,
    )
    report = run_mixed_benchmark(config)
    path = write_report(report, args.out)
    mixed = report["mixed"]
    summary = {
        "report": str(path),
        "ops_per_second": round(mixed["ops_per_second"], 1),
        "read_p99_us": round(report["query_latency"]["p99_s"] * 1e6, 1),
        "write_p99_us": round(mixed["write_latency"]["p99_s"] * 1e6, 1),
        "compactions": mixed["compaction_pauses"],
        "compaction_pause_max_ms": round(
            mixed["compaction_pause_max_s"] * 1e3, 3
        ),
        "mismatches": report["query_counters"]["mixed.mismatches"],
        "recovered_mismatches": report["query_counters"][
            "mixed.recovered_mismatches"
        ],
        "trigger_writes": report["triggers"]["writes_until_rebuild"],
    }
    print(json.dumps(summary))
    counters = report["query_counters"]
    correctness = (
        counters["mixed.mismatches"]
        + counters["mixed.recovered_mismatches"]
        + counters["mixed.recovered_pool_drift"]
        + counters["mixed.recovery_torn_tails"]
        + counters["triggers.mismatches"]
    )
    if correctness:
        print(
            f"error: mixed write path served wrong answers ({counters})",
            file=sys.stderr,
        )
        return 1
    silent = [
        reason for reason in TRIGGERS if counters[f"triggers.{reason}"] < 1
    ]
    if silent:
        print(
            f"error: the trigger phase never rebuilt for {silent}",
            file=sys.stderr,
        )
        return 1
    return 0


def _run_recovery(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .recovery import RECOVERY_CONFIG, run_recovery_benchmark

    config = replace(
        RECOVERY_CONFIG,
        name=args.name or RECOVERY_CONFIG.name,
        seed=args.seed
        if args.seed != SMOKE_CONFIG.seed
        else RECOVERY_CONFIG.seed,
        mmap=args.mmap,
    )
    report = run_recovery_benchmark(config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / f"RECOVERY_{config.name}.json"
    path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    summary = {
        "report": str(path),
        "mmap": config.mmap,
        "scenarios": len(report["scenarios"]),
        "violations": report["n_violations"],
    }
    print(json.dumps(summary))
    if report["n_violations"]:
        for violation in report["violations"]:
            print(f"error: {violation}", file=sys.stderr)
        return 1
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from .serve import SERVE_CONFIG, run_serve_benchmark

    config = replace(
        SERVE_CONFIG,
        name=args.name or SERVE_CONFIG.name,
        seed=args.seed,
        n_clients=args.clients,
        queries_per_client=args.queries_per_client,
        queue_bound=args.queue_bound,
    )
    report = run_serve_benchmark(config)
    # The flight dump is a debugging artifact, not a gated metric:
    # write it next to the report (CI uploads it on failure) and keep
    # the committed BENCH report free of per-request latency noise.
    flight = report.pop("flight")
    flight_path = Path(args.out) / "FLIGHT_serve.json"
    flight_path.parent.mkdir(parents=True, exist_ok=True)
    flight_path.write_text(json.dumps(flight, indent=2, sort_keys=True))
    path = write_report(report, args.out)
    serve = report["serve"]
    chaos = report["chaos"]
    summary = {
        "report": str(path),
        "flight": str(flight_path),
        "throughput_qps": round(serve["throughput_qps"], 1),
        "p50_us": round(serve["latency"]["p50_s"] * 1e6, 1),
        "p99_us": round(serve["latency"]["p99_s"] * 1e6, 1),
        "mismatches": serve["mismatches"],
        "trace_failures": serve["trace_failures"],
        "untraced": serve["untraced_requests"],
        "chaos_ok": chaos["outcomes"]["ok"],
        "chaos_shed": chaos["outcomes"]["shed"],
        "chaos_timeout": chaos["outcomes"]["timeout"],
        "chaos_unexpected": len(chaos["unexpected_errors"]),
    }
    print(json.dumps(summary))
    contract_violations = sum(report["query_counters"].values())
    if contract_violations:
        print(
            "error: serving contract violated "
            f"({report['query_counters']})",
            file=sys.stderr,
        )
        return 1
    if args.min_qps and serve["throughput_qps"] < args.min_qps:
        print(
            f"error: throughput {serve['throughput_qps']:.0f} q/s below "
            f"the --min-qps floor of {args.min_qps:.0f}",
            file=sys.stderr,
        )
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Seeded Ranked-Join-Index benchmark harness.",
    )
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="run the small CI smoke scenario (overrides the size flags)",
    )
    parser.add_argument(
        "--build-heavy",
        action="store_true",
        help="run the construction-dominated scenario (overrides size flags)",
    )
    parser.add_argument(
        "--serve",
        action="store_true",
        help="run the closed-loop serving scenario (QueryServer + "
        "multi-client load generator + chaos overload phase)",
    )
    parser.add_argument(
        "--open-zero-copy",
        action="store_true",
        help="run the cold-open scenario: eager vs mmap open latency "
        "plus the hot-region cache under a skewed workload",
    )
    parser.add_argument(
        "--mixed",
        action="store_true",
        help="run the mixed read/write scenario: zipf reads over a "
        "durable index taking a steady WAL-backed insert/delete stream "
        "(reports write p99 and compaction pauses, gates correctness)",
    )
    parser.add_argument(
        "--recovery",
        action="store_true",
        help="run every crash-recovery chaos scenario (kill during "
        "append/commit/apply/compaction, torn WAL tail) and verify the "
        "durability contract; writes RECOVERY_<name>.json, exit 1 on "
        "any violation",
    )
    parser.add_argument(
        "--clients",
        type=int,
        default=4,
        help="closed-loop client workers for --serve (default 4)",
    )
    parser.add_argument(
        "--queries-per-client",
        type=int,
        default=1000,
        help="queries each --serve client issues (default 1000)",
    )
    parser.add_argument(
        "--queue-bound",
        type=int,
        default=1024,
        help="server admission-queue bound for --serve (default 1024)",
    )
    parser.add_argument(
        "--min-qps",
        type=float,
        default=0.0,
        help="fail --serve when sustained throughput drops below this "
        "floor (default 0: report only)",
    )
    parser.add_argument(
        "--compare",
        nargs=2,
        metavar=("OLD", "NEW"),
        help="diff two BENCH_*.json reports and gate on counter regressions "
        "(exit 1 past --threshold, exit 2 on unusable inputs)",
    )
    parser.add_argument(
        "--faults",
        default=None,
        metavar="PLAN",
        help="run the chaos smoke scenario under a fault plan (a built-in "
        "name such as 'transient-reads', 'storm', 'bitrot', 'slow-disk', "
        "or a path to a FaultPlan JSON)",
    )
    parser.add_argument(
        "--threshold",
        type=float,
        default=1.10,
        help="counter regression ratio for --compare (default 1.10)",
    )
    parser.add_argument(
        "--gate-time",
        action="store_true",
        help="also gate wall-clock metrics in --compare (off by default; "
        "timings are noisy on shared runners)",
    )
    parser.add_argument(
        "--time-threshold",
        type=float,
        default=2.0,
        help="wall-clock regression ratio when --gate-time is set",
    )
    parser.add_argument("--name", default=None, help="scenario/report name")
    parser.add_argument(
        "--dataset",
        default=SMOKE_CONFIG.dataset,
        choices=("uniform", "gauss", "correlated", "anticorrelated"),
    )
    parser.add_argument("--n-tuples", type=int, default=20_000)
    parser.add_argument("--k-bound", type=int, default=50)
    parser.add_argument("--k-query", type=int, default=10)
    parser.add_argument("--n-queries", type=int, default=1_000)
    parser.add_argument("--seed", type=int, default=SMOKE_CONFIG.seed)
    parser.add_argument(
        "--variant", default="standard", choices=("standard", "ordered")
    )
    parser.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="hot-region cache capacity for query passes (0 = disabled)",
    )
    parser.add_argument(
        "--mmap",
        action="store_true",
        help="for --faults: reopen the index zero-copy (mmap) before "
        "arming the plan, chaos-testing the memory-mapped read path",
    )
    parser.add_argument("--out", default=".", help="report output directory")
    parser.add_argument(
        "--trace",
        default=None,
        metavar="OUT.json",
        help="write all completed spans as a Chrome trace-event file "
        "(render with `python -m repro.obs render-trace OUT.json`)",
    )
    parser.add_argument(
        "--log",
        default=None,
        metavar="OUT.jsonl",
        help="stream every recorder event of the instrumented passes "
        "to a JSONL log",
    )
    args = parser.parse_args(argv)

    if args.compare:
        return _run_compare(args)
    if args.smoke and args.build_heavy:
        parser.error("--smoke and --build-heavy are mutually exclusive")
    if args.serve:
        return _run_serve(args)
    if args.open_zero_copy:
        return _run_open(args)
    if args.mixed:
        return _run_mixed(args)
    if args.recovery:
        return _run_recovery(args)
    if args.faults is not None:
        return _run_chaos(args)

    if args.smoke or args.build_heavy:
        base = SMOKE_CONFIG if args.smoke else BUILD_HEAVY_CONFIG
        config = replace(
            base,
            seed=args.seed if args.seed != SMOKE_CONFIG.seed else base.seed,
        )
        if args.name is not None:
            config = replace(config, name=args.name)
    else:
        config = BenchConfig(
            name=args.name or "custom",
            dataset=args.dataset,
            n_tuples=args.n_tuples,
            k_bound=args.k_bound,
            k_query=args.k_query,
            n_queries=args.n_queries,
            seed=args.seed,
            variant=args.variant,
            cache_size=args.cache_size,
        )

    report = run_benchmark(
        config, trace_path=args.trace, log_path=args.log
    )
    path = write_report(report, args.out)

    latency = report["query_latency"]
    summary = {
        "report": str(path),
        "build_s": round(report["build"]["wall_seconds"], 4),
        "p50_us": round(latency["p50_s"] * 1e6, 1),
        "p99_us": round(latency["p99_s"] * 1e6, 1),
        "regions": report["build"]["n_regions"],
        "recorder_overhead": round(
            report["overhead"]["metrics_over_null"], 3
        ),
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
