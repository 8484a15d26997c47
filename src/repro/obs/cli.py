"""``python -m repro.obs`` — inspect traces, snapshots, and metric names.

Five subcommands:

``render-trace TRACE.json [--trace-id ID]``
    Deterministic text rendering of a Chrome trace-event file produced
    by :func:`repro.obs.export.write_chrome_trace` (or ``repro.bench
    --trace``): one line per span, indented by nesting depth, with
    durations and attributes.  ``--trace-id`` keeps only the spans
    attributed to one request (see :mod:`repro.obs.context`).

``top HOST PORT``
    Live terminal view of a running :class:`~repro.serve.server
    .QueryServer`: polls the ``stats`` wire op and renders the rolling
    window (qps, p50/p99, shed rate), queue depth, flight-recorder
    summary and cache hit rate.  Speaks the length-prefixed JSON wire
    protocol directly over a plain socket — ``obs`` sits *below*
    ``serve`` in the layering DAG (RJI001), so it must not import it.

``tail LOG.jsonl``
    Level-filtered (``--level``), optionally trace-id-filtered
    (``--trace``) view of a :class:`~repro.obs.log.JsonlRecorder` event
    log; ``--follow`` keeps watching the file for new events.

``diff-snapshots OLD.json NEW.json``
    Counter-by-counter diff of two metrics snapshots or two
    ``BENCH_*.json`` reports; ``--fail-over R`` exits non-zero when any
    shared counter grew past the ratio ``R``.

``lint-names [PATHS...]``
    Statically check every ``recorder.count/observe/timer/span`` call
    site under the given paths (default ``src``) against the registry
    in :mod:`repro.obs.names`; CI and the pre-commit hook run it on
    ``src``.
"""

from __future__ import annotations

import argparse
import ast
import json
import socket
import sys
import time
from pathlib import Path

from ..errors import StorageError
from .export import diff_snapshots, filter_trace_events, render_snapshot_diff
from .log import LEVELS, event_matches
from .names import iter_metric_calls, registered

__all__ = ["main"]


def _render_trace(args: argparse.Namespace) -> int:
    path = Path(args.trace)
    try:
        document = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read trace {path}: {exc}", file=sys.stderr)
        return 2
    events = [
        event
        for event in document.get("traceEvents", [])
        if event.get("ph") == "X"
    ]
    if args.trace_id:
        events = [
            event
            for event in filter_trace_events(events, args.trace_id)
            if event.get("ph") == "X"
        ]
    events.sort(key=lambda e: (e.get("ts", 0.0), -e.get("dur", 0.0)))
    if not events:
        print("(empty trace)")
        return 0
    lines = []
    for event in events:
        arguments = dict(event.get("args", {}))
        depth = int(arguments.pop("depth", 0))
        duration_ms = event.get("dur", 0.0) / 1e3
        suffix = ""
        if arguments:
            inner = ", ".join(
                f"{key}={arguments[key]}" for key in sorted(arguments)
            )
            suffix = f"  {{{inner}}}"
        lines.append(
            f"{'  ' * depth}{event.get('name', '?')}  "
            f"[tid {event.get('tid', 0)}]  {duration_ms:.3f}ms{suffix}"
        )
    print("\n".join(lines))
    print(f"{len(events)} spans")
    return 0


def _load_json(path: str) -> dict | None:
    try:
        loaded = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read {path}: {exc}", file=sys.stderr)
        return None
    if not isinstance(loaded, dict):
        print(f"error: {path} is not a JSON object", file=sys.stderr)
        return None
    return loaded


def _diff_snapshots(args: argparse.Namespace) -> int:
    old = _load_json(args.old)
    new = _load_json(args.new)
    if old is None or new is None:
        return 2
    deltas = diff_snapshots(old, new)
    print(render_snapshot_diff(deltas))
    if args.fail_over is not None:
        regressed = [
            delta.name
            for delta in deltas
            if delta.ratio is not None and delta.ratio > args.fail_over
        ]
        if regressed:
            print(
                f"fail-over {args.fail_over:g}x exceeded: "
                + ", ".join(regressed)
            )
            return 1
    return 0


def _python_files(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        path = Path(raw)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        elif path.suffix == ".py":
            files.append(path)
    return files


def _lint_names(args: argparse.Namespace) -> int:
    problems: list[str] = []
    checked = 0
    for path in _python_files(args.paths):
        try:
            tree = ast.parse(path.read_text(encoding="utf-8"))
        except (OSError, SyntaxError) as exc:
            print(f"error: cannot parse {path}: {exc}", file=sys.stderr)
            return 2
        for call in iter_metric_calls(tree):
            if call.name is None:
                continue
            checked += 1
            if not registered(call.name):
                problems.append(
                    f"{path}:{call.line}:{call.col}: "
                    f"unregistered metric name {call.name!r} "
                    f"in recorder.{call.verb}(...) — add it to "
                    "repro/obs/names.py"
                )
    for problem in problems:
        print(problem)
    print(
        f"checked {checked} literal metric call sites: "
        f"{len(problems)} unregistered"
    )
    return 1 if problems else 0


# -- top: live stats view over the wire protocol -------------------------------

#: Length-prefix size of the repro.serve wire protocol (kept in sync
#: with ``repro/serve/protocol.py``; obs cannot import serve — RJI001).
_HEADER_BYTES = 4


def _read_exact(sock: socket.socket, n: int) -> bytes:
    chunks: list[bytes] = []
    remaining = n
    while remaining:
        chunk = sock.recv(min(remaining, 1 << 16))
        if not chunk:
            raise ConnectionError("server closed the connection mid-frame")
        chunks.append(chunk)
        remaining -= len(chunk)
    return b"".join(chunks)


def _wire_stats(host: str, port: int, timeout_s: float) -> dict:
    """One ``stats`` round trip over a fresh connection."""
    body = json.dumps({"op": "stats", "id": 1}).encode("utf-8")
    with socket.create_connection((host, port), timeout=timeout_s) as sock:
        sock.sendall(len(body).to_bytes(_HEADER_BYTES, "big") + body)
        header = _read_exact(sock, _HEADER_BYTES)
        response = json.loads(
            _read_exact(sock, int.from_bytes(header, "big"))
        )
    if not isinstance(response, dict) or not response.get("ok"):
        error = response.get("error", {}) if isinstance(response, dict) else {}
        raise ConnectionError(
            f"stats op failed: {error.get('type', '?')}: "
            f"{error.get('message', repr(response))}"
        )
    stats = response.get("stats")
    if not isinstance(stats, dict):
        raise ConnectionError(f"malformed stats payload: {stats!r}")
    return stats


def _render_stats(host: str, port: int, stats: dict) -> str:
    window = stats.get("window", {})
    lifetime = stats.get("lifetime", {})
    flight = stats.get("flight", {})
    outcomes = window.get("outcomes", {})
    lines = [
        f"repro top — {host}:{port} — window {window.get('window_s', 0):g}s"
        f" ({window.get('count', 0)} requests)",
        f"  qps {window.get('qps', 0.0):8.1f}"
        f"   p50 {window.get('p50_s', 0.0) * 1e3:8.3f}ms"
        f"   p99 {window.get('p99_s', 0.0) * 1e3:8.3f}ms"
        f"   max {window.get('max_s', 0.0) * 1e3:8.3f}ms",
        f"  ok {outcomes.get('ok', 0)}"
        f"   error {outcomes.get('error', 0)}"
        f"   shed {outcomes.get('shed', 0)}"
        f" ({window.get('shed_rate', 0.0) * 100:.1f}%)"
        f"   timeout {outcomes.get('timeout', 0)}"
        + (
            f"   [percentiles inexact: {window['dropped']} dropped]"
            if window.get("dropped")
            else ""
        ),
        f"  queue {stats.get('queue_depth', 0)}/{stats.get('queue_bound', 0)}"
        f"   lifetime requests {lifetime.get('requests', 0)}"
        f"   shed {lifetime.get('shed', 0)}"
        f"   errors {lifetime.get('errors', 0)}"
        f"   untraced {lifetime.get('untraced', 0)}",
        f"  flight {flight.get('retained', 0)}/{flight.get('capacity', 0)}"
        f" retained of {flight.get('recorded', 0)} recorded"
        f"   errors kept {flight.get('errors_retained', 0)}",
    ]
    cache = stats.get("cache")
    if isinstance(cache, dict):
        lines.append(
            f"  cache hit {cache.get('hit_rate', 0.0) * 100:.1f}%"
            f"   (hits {cache.get('hits', 0)}"
            f" misses {cache.get('misses', 0)}"
            f" size {cache.get('size', 0)}/{cache.get('capacity', 0)})"
        )
    return "\n".join(lines)


def _run_top(args: argparse.Namespace) -> int:
    polls = 0
    while True:
        try:
            stats = _wire_stats(args.host, args.port, args.timeout)
        except (OSError, ConnectionError, json.JSONDecodeError) as exc:
            print(
                f"error: cannot poll {args.host}:{args.port}: {exc}",
                file=sys.stderr,
            )
            return 2
        print(_render_stats(args.host, args.port, stats), flush=True)
        polls += 1
        if args.count and polls >= args.count:
            return 0
        try:
            time.sleep(args.interval)
        except KeyboardInterrupt:
            return 0


# -- tail: follow a JSONL event log --------------------------------------------


def _render_event(event: dict) -> str:
    attrs = event.get("attrs") or {}
    suffix = ""
    if attrs:
        inner = ", ".join(f"{key}={attrs[key]}" for key in sorted(attrs))
        suffix = f"  {{{inner}}}"
    value = event.get("value")
    value_text = f"{value:g}" if isinstance(value, (int, float)) else "-"
    return (
        f"{event.get('ts', 0.0):12.6f}  {event.get('level', '?'):7}"
        f"  {event.get('event', '?'):7}  {event.get('name', '?')}"
        f"  {value_text}{suffix}"
    )


def _run_tail(args: argparse.Namespace) -> int:
    path = Path(args.log)
    shown = 0
    try:
        handle = path.open("r", encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot open {path}: {exc}", file=sys.stderr)
        return 2
    with handle:
        try:
            while True:
                line = handle.readline()
                if not line:
                    if not args.follow:
                        break
                    time.sleep(args.interval)
                    continue
                text = line.strip()
                if not text:
                    continue
                try:
                    event = json.loads(text)
                except json.JSONDecodeError as exc:
                    print(
                        f"error: invalid JSONL event: {exc}",
                        file=sys.stderr,
                    )
                    return 2
                try:
                    matched = event_matches(
                        event, min_level=args.level, trace_id=args.trace
                    )
                except StorageError as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 2
                if matched:
                    print(_render_event(event), flush=args.follow)
                    shown += 1
        except KeyboardInterrupt:
            pass
    if not args.follow:
        print(f"{shown} events")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.obs",
        description="Inspect traces, snapshots and metric names.",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    render = commands.add_parser(
        "render-trace", help="text-render a Chrome trace-event JSON file"
    )
    render.add_argument("trace", help="trace file (repro.bench --trace)")
    render.add_argument(
        "--trace-id",
        default=None,
        metavar="ID",
        help="only render spans attributed to this request trace id",
    )

    top = commands.add_parser(
        "top", help="live stats view of a running repro.serve server"
    )
    top.add_argument("host", help="server host")
    top.add_argument("port", type=int, help="server port")
    top.add_argument(
        "--interval",
        type=float,
        default=1.0,
        metavar="SECONDS",
        help="seconds between polls (default: 1)",
    )
    top.add_argument(
        "--count",
        type=int,
        default=0,
        metavar="N",
        help="exit after N polls (default: poll until interrupted)",
    )
    top.add_argument(
        "--timeout",
        type=float,
        default=5.0,
        metavar="SECONDS",
        help="per-poll connection timeout (default: 5)",
    )

    tail = commands.add_parser(
        "tail", help="filter and follow a JSONL recorder event log"
    )
    tail.add_argument("log", help="JsonlRecorder log file")
    tail.add_argument(
        "--level",
        default="debug",
        choices=sorted(LEVELS),
        help="minimum event level to show (default: debug)",
    )
    tail.add_argument(
        "--trace",
        default=None,
        metavar="ID",
        help="only show events attributed to this request trace id",
    )
    tail.add_argument(
        "--follow",
        action="store_true",
        help="keep watching the file for appended events",
    )
    tail.add_argument(
        "--interval",
        type=float,
        default=0.2,
        metavar="SECONDS",
        help="poll interval while following (default: 0.2)",
    )

    diff = commands.add_parser(
        "diff-snapshots",
        help="diff the counters of two snapshots or BENCH reports",
    )
    diff.add_argument("old", help="old snapshot/report JSON")
    diff.add_argument("new", help="new snapshot/report JSON")
    diff.add_argument(
        "--fail-over",
        type=float,
        default=None,
        metavar="RATIO",
        help="exit 1 when any shared counter grew past this ratio",
    )

    lint = commands.add_parser(
        "lint-names",
        help="check recorder call sites against repro/obs/names.py",
    )
    lint.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to scan (default: src)",
    )

    args = parser.parse_args(argv)
    if args.command == "render-trace":
        return _render_trace(args)
    if args.command == "top":
        return _run_top(args)
    if args.command == "tail":
        return _run_tail(args)
    if args.command == "diff-snapshots":
        return _diff_snapshots(args)
    return _lint_names(args)
