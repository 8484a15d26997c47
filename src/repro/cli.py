"""Command-line entry point: ``python -m repro.cli <command>``.

Four command families:

* experiments — one command per table/figure of the paper (see
  DESIGN.md), plus ``all``, ``report`` and the parts/suppliers ``demo``;
* index tooling — ``index-build`` constructs a disk-resident ranked
  join index from two CSV files, ``index-query`` answers top-k
  queries against the saved index file, ``index-describe`` reports its
  structure and ``advise`` recommends a construction bound K;
* ``serve`` — expose a saved index over TCP behind the resilient
  serving wrapper (admission control, deadlines, typed errors; query it
  with :class:`repro.serve.Client`);
* ``sql`` — run a script of SQL statements (the declarative surface of
  Section 4) against an in-memory catalog.
"""

from __future__ import annotations

import argparse
import sys

from .experiments.runall import EXPERIMENTS, run_one

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the evaluation of 'Ranked Join Indices' (ICDE 2003)",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    for name in (*EXPERIMENTS, "all"):
        sub = commands.add_parser(
            name, help=f"run experiment {name}" if name != "all" else "run everything"
        )
        sub.add_argument(
            "--scale",
            choices=("small", "paper"),
            default="small",
            help="'small' finishes in minutes; 'paper' uses published sizes",
        )
        sub.add_argument("--seed", type=int, default=0, help="RNG seed")

    commands.add_parser("demo", help="the paper's parts/suppliers scenario")

    build = commands.add_parser(
        "index-build", help="build a disk RJI from two CSV files"
    )
    build.add_argument("--left", required=True, help="left CSV file")
    build.add_argument("--right", required=True, help="right CSV file")
    build.add_argument(
        "--on", nargs=2, required=True, metavar=("LEFT_COL", "RIGHT_COL"),
        help="equi-join columns",
    )
    build.add_argument(
        "--ranks", nargs=2, required=True, metavar=("LEFT_RANK", "RIGHT_RANK"),
        help="rank attribute columns",
    )
    build.add_argument("-k", type=int, required=True, help="construction bound K")
    build.add_argument("--output", required=True, help="index file to write")
    build.add_argument(
        "--variant", choices=("standard", "ordered"), default="standard"
    )
    build.add_argument(
        "--merge-slack", type=int, default=0,
        help="Section 6.2 merge budget slack m (regions hold <= K+m tuples)",
    )

    query = commands.add_parser(
        "index-query", help="query a saved disk RJI"
    )
    query.add_argument("--index", required=True, help="index file from index-build")
    query.add_argument("--p1", type=float, required=True, help="weight of the left rank")
    query.add_argument("--p2", type=float, required=True, help="weight of the right rank")
    query.add_argument("-k", type=int, required=True, help="result size")

    describe = commands.add_parser(
        "index-describe", help="structural report of a saved disk RJI"
    )
    describe.add_argument("--index", required=True, help="index file")

    sql = commands.add_parser("sql", help="run SQL statements")
    source = sql.add_mutually_exclusive_group(required=True)
    source.add_argument("--execute", "-e", help="statements, ';'-separated")
    source.add_argument("--file", "-f", help="script file of statements")

    advise = commands.add_parser(
        "advise", help="recommend a construction bound K for a workload"
    )
    advise.add_argument("--left", required=True, help="left CSV file")
    advise.add_argument("--right", required=True, help="right CSV file")
    advise.add_argument(
        "--on", nargs=2, required=True, metavar=("LEFT_COL", "RIGHT_COL")
    )
    advise.add_argument(
        "--ranks", nargs=2, required=True, metavar=("LEFT_RANK", "RIGHT_RANK")
    )
    advise.add_argument(
        "--ks", required=True,
        help="comma-separated observed/anticipated k requests, e.g. 1,5,10,50",
    )
    advise.add_argument(
        "--quantile", type=float, default=0.99,
        help="workload quantile the bound must cover",
    )

    serve = commands.add_parser(
        "serve",
        help="serve a saved disk RJI over TCP (length-prefixed frames: "
        "binary query, JSON for every other op; query with "
        "repro.serve.Client)",
    )
    serve.add_argument(
        "--index", required=True, help="index file from index-build"
    )
    serve.add_argument("--host", default="127.0.0.1", help="bind address")
    serve.add_argument(
        "--port", type=int, default=7411, help="bind port (0 = ephemeral)"
    )
    serve.add_argument(
        "--queue-bound",
        type=int,
        default=1024,
        help="admission-queue bound; beyond it requests are shed with "
        "ServerOverloadedError (default 1024)",
    )
    serve.add_argument(
        "--mmap",
        action="store_true",
        help="open the index zero-copy via mmap: O(1) startup with "
        "lazy per-page checksum verification on first touch "
        "(docs/PERFORMANCE.md)",
    )
    serve.add_argument(
        "--cache-size",
        type=int,
        default=0,
        help="hot-region cache capacity (preference angles); 0 disables "
        "(default 0)",
    )
    serve.add_argument(
        "--flight-dump",
        default=None,
        metavar="OUT.json",
        help="on unclean shutdown (any non-ok request), write the "
        "flight-recorder dump here "
        "(docs/OBSERVABILITY.md)",
    )

    report = commands.add_parser(
        "report", help="regenerate EXPERIMENTS.md from benchmark results"
    )
    report.add_argument(
        "--results", default="benchmarks/results", help="results directory"
    )
    report.add_argument(
        "--output", default="EXPERIMENTS.md", help="markdown file to write"
    )
    return parser


def _demo() -> None:
    """The paper's Figure 1 scenario, end to end."""
    from .core.scoring import Preference
    from .relalg import Database, Relation

    parts = Relation.from_rows(
        [("availability", "float64"), ("name", "str"), ("supplier_id", "int64")],
        [(5.0, "PO5", 1), (2.0, "PO5", 2), (9.0, "PO5", 3)],
    )
    suppliers = Relation.from_rows(
        [("supplier_id", "int64"), ("quality", "float64")],
        [(1, 10.0), (2, 3.0), (3, 8.0)],
    )
    db = Database()
    db.register("parts", parts)
    db.register("suppliers", suppliers)
    db.create_ranked_join_index(
        "parts_by_supplier",
        "parts",
        "suppliers",
        on=("supplier_id", "supplier_id"),
        ranks=("availability", "quality"),
        k=2,
    )
    print("Top-2 parts, availability twice as important as quality:")
    print(db.top_k_join("parts_by_supplier", Preference(2.0, 1.0), 2).head_str())
    print()
    print("Top-2 parts, quality-focused buyer:")
    print(db.top_k_join("parts_by_supplier", Preference(0.5, 2.0), 2).head_str())


def _index_build(args) -> None:
    from .core.index import RankedJoinIndex
    from .relalg import rank_join_candidates, read_csv
    from .storage import DiskRankedJoinIndex

    left = read_csv(args.left)
    right = read_csv(args.right)
    candidates = rank_join_candidates(
        left, right, tuple(args.on), tuple(args.ranks), args.k
    )
    index = RankedJoinIndex.build(
        candidates, args.k, variant=args.variant, merge_slack=args.merge_slack
    )
    disk = DiskRankedJoinIndex(index)
    disk.save(args.output)
    stats = index.stats
    print(
        f"built {args.output}: |C|={stats.n_input} |Dom|={stats.n_dominating} "
        f"|Sep|={stats.n_separating} regions={index.n_regions} "
        f"bytes={disk.total_bytes}"
    )


def _index_query(args) -> None:
    from .core.pruning import decode_rid_pair
    from .core.scoring import Preference
    from .storage import DiskRankedJoinIndex

    disk = DiskRankedJoinIndex.open(args.index)
    results = disk.query(Preference(args.p1, args.p2), args.k)
    print("left_row,right_row,score")
    for result in results:
        left_row, right_row = decode_rid_pair(result.tid)
        print(f"{left_row},{right_row},{result.score:.6g}")


def _advise(args) -> None:
    from .relalg import rank_join_candidates, read_csv
    from .bench.advisor import advise_k

    requested = [int(k) for k in args.ks.split(",") if k.strip()]
    left = read_csv(args.left)
    right = read_csv(args.right)
    max_k = max(requested)
    candidates = rank_join_candidates(
        left, right, tuple(args.on), tuple(args.ranks), max_k * 4
    )
    report = advise_k(
        candidates, requested, coverage_quantile=args.quantile
    )
    print(report.render())


def _serve(args) -> None:
    import json as _json
    import time as _time

    from .obs import ContextRecorder, MetricsRecorder
    from .serve import QueryServer
    from .storage import DiskRankedJoinIndex
    from .storage.resilient import ResilientDiskRankedJoinIndex

    # One ContextRecorder shared between the index and the server: the
    # pager's page-read events then carry the trace id of the request
    # that caused them, so `python -m repro.obs tail --trace ID` follows
    # a query all the way down to disk.
    recorder = ContextRecorder(MetricsRecorder())
    disk = DiskRankedJoinIndex.open(
        args.index,
        mmap=args.mmap,
        cache_size=args.cache_size,
        recorder=recorder,
    )
    service = ResilientDiskRankedJoinIndex(disk)
    server = QueryServer(
        service,
        host=args.host,
        port=args.port,
        queue_bound=args.queue_bound,
        recorder=recorder,
        flight_path=args.flight_dump,
    )
    with server:
        host, port = server.address
        open_mode = "mmap (zero-copy)" if args.mmap else "eager"
        print(
            f"serving {args.index} (K={service.k_bound}) on {host}:{port} "
            f"(queue_bound={args.queue_bound}, open={open_mode}, "
            f"cache_size={args.cache_size}); "
            f"live view: python -m repro.obs top {host} {port}; "
            "Ctrl-C to stop"
        )
        try:
            while True:
                _time.sleep(1.0)
        except KeyboardInterrupt:
            print(f"shutting down: {server.stats()}")
            print(
                "last window: "
                f"{_json.dumps(server.window.snapshot(), sort_keys=True)}"
            )


def _sql(args) -> None:
    from .relalg.relation import Relation
    from .sql import SQLDatabase

    if args.execute is not None:
        script = args.execute
    else:
        with open(args.file) as handle:
            script = handle.read()
    engine = SQLDatabase()
    for result in engine.run_script(script):
        if isinstance(result, Relation):
            print(result.head_str(limit=50))
        else:
            print(result)


def main(argv: list[str] | None = None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    args = _build_parser().parse_args(argv)
    if args.command == "demo":
        _demo()
    elif args.command == "index-build":
        _index_build(args)
    elif args.command == "index-query":
        _index_query(args)
    elif args.command == "index-describe":
        from .storage import DiskRankedJoinIndex

        print(DiskRankedJoinIndex.open(args.index).describe())
    elif args.command == "serve":
        _serve(args)
    elif args.command == "sql":
        _sql(args)
    elif args.command == "advise":
        _advise(args)
    elif args.command == "report":
        from .experiments.report import generate_report

        generate_report(args.results, args.output)
        print(f"wrote {args.output}")
    else:
        names = EXPERIMENTS if args.command == "all" else (args.command,)
        for name in names:
            for table in run_one(name, scale=args.scale, seed=args.seed):
                print(table.render())
                print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
