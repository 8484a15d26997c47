"""The five workloads, as four kinds of session.

A *session* sets the program up (timed: ``setup_s``), runs equal-sized
closed-loop segments for a time budget, checks every answer outside the
timed path, and finishes with the operations that only make sense once
(crash + recovery, cold open, shutdown).  ``serve-read`` and
``serve-mixed`` share :class:`ServeSession`; ``core-read`` is
:class:`MemorySession`, ``disk-read`` :class:`DiskSession` and
``durable-mixed`` :class:`DurableSession`.  A traced run reuses the same
sessions with a :class:`tracing.Tracer` wrapped around every call, and
``layers.py`` runs short serve/durable sessions over any workload's data
to fill in the per-layer numbers that workload does not exercise.

Sizes are for ``scale=1`` (``test_harness.py`` runs at 1/20): a segment
always holds >= 1000 reads, so every per-segment p99 has >= 10 samples
beyond it.
"""

from __future__ import annotations

import resource
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from inputs import Inputs
from serving import ServerChild, connect, run_segment
from stats import Segment

from repro.baselines.fullscan import FullScanTopK
from repro.core.index import QueryResult, RankedJoinIndex
from repro.errors import ReproError
from repro.storage.diskindex import DiskRankedJoinIndex
from repro.storage.durable import DurableRankedJoinIndex

N_CLIENTS = 2  # <= nproc on the 2-core sandbox; the server has the rest
COMPACTION_THRESHOLD = 64
N_PROBES = 64
clock = time.perf_counter


@dataclass
class Ledger:
    """Attempted / failed operations; a wrong answer is a failure."""

    attempted: int = 0
    failed: int = 0
    notes: list[str] = field(default_factory=list)

    def fail(self, why: str, n: int = 1) -> None:
        self.failed += n
        if len(self.notes) < 10:
            self.notes.append(why)


@dataclass
class Run:
    """What every session of one benchmark run shares."""

    inputs: Inputs
    workdir: Path
    scale: float = 1.0
    #: Harness self-test: "corrupt-reference" or "refuse-write".
    fault: str | None = None
    ledger: Ledger = field(default_factory=Ledger)

    def sized(self, n: int) -> int:
        return max(8, int(n * self.scale))

    def references(self, index, preferences, k: int) -> list:
        """Scalar in-process answers every timed answer must equal."""
        answers = [index.query(p, k) for p in preferences]
        if self.fault == "corrupt-reference":
            self.fault = None
            tid, score = answers[0][0]
            answers[0] = [QueryResult(tid, score + 1.0), *answers[0][1:]]
        return answers

    def check_equal(self, answers, references, what: str) -> None:
        wrong = sum(a != r for a, r in zip(answers, references))
        wrong += abs(len(answers) - len(references))
        if wrong:
            self.ledger.fail(f"{what}: {wrong} answers differ from reference", wrong)

    def check_shape(self, answers, k: int, what: str) -> None:
        """Live check under concurrent writes: k rows, best score first."""
        for answer in answers:
            scores = [r.score for r in answer]
            if len(answer) != k or scores != sorted(scores, reverse=True):
                self.ledger.fail(f"{what}: malformed answer {answer!r}")


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def dir_bytes(directory: Path) -> int:
    return sum(f.stat().st_size for f in directory.rglob("*") if f.is_file())


def timed_segments(one_segment, seconds: float) -> list[Segment]:
    """Run equal segments until ``seconds`` of segment wall time is spent."""
    segments: list[Segment] = []
    spent = 0.0
    while spent < seconds or len(segments) < 2:
        segment = one_segment()
        segments.append(segment)
        spent += segment.wall_s
    return segments


class Session:
    """What run.py and layers.py drive: ``segment(tracer)`` in a time budget."""

    def segment(self, tracer=None) -> Segment:
        raise NotImplementedError

    def segments(self, seconds: float, tracer=None) -> list[Segment]:
        return timed_segments(lambda: self.segment(tracer), seconds)

    def close(self) -> None:
        pass


def read_segment(
    run: Run, query, preferences, references, what: str, tracer=None
) -> Segment:
    """One single-threaded segment of ``query(preference, k)`` calls.

    The answer is consumed inside the timed region and checked after it.
    """
    k = run.inputs.shape.k
    latencies, answers = [], []
    began = clock()
    for rid, preference in enumerate(preferences):
        started = clock()
        if tracer is None:
            answer = query(preference, k)
        else:
            answer = tracer.call(what, rid, query, preference, k)
        latencies.append(clock() - started)
        answers.append(answer)
    wall = clock() - began
    run.ledger.attempted += len(answers)
    run.check_equal(answers, references, what)
    return Segment.of(latencies, [], wall)


def _probe_mismatches(service, expected: dict, preferences, k: int, k_bound: int):
    """Quiescent comparison against a scalar rebuild of ``expected``."""
    rebuilt = RankedJoinIndex.build(sorted(expected.values()), k_bound)
    return sum(service.query(p, k) != rebuilt.query(p, k) for p in preferences)


def _best_recover_ms(directory: Path, scratch: Path, copies: int = 3):
    """Recover ``copies`` copies of ``directory``; best time + first index."""
    times, first = [], None
    for i in range(copies):
        copy = scratch / f"recover-{i}"
        shutil.copytree(directory, copy)
        started = clock()
        recovered = DurableRankedJoinIndex.recover(
            copy, compaction_threshold=COMPACTION_THRESHOLD, fsync=True
        )
        times.append((clock() - started) * 1e3)
        if first is None:
            first = recovered
        else:
            recovered.close()
    return min(times), first


def _check_recovered(run: Run, recovered, expected: dict, probes, what: str):
    """Every acked write survived, and answers equal a scalar rebuild."""
    shape = run.inputs.shape
    run.ledger.attempted += len(probes) + 1
    live = {t.tid for t in recovered.live_tuples()}
    if live != set(expected):
        lost = len(set(expected) ^ live)
        run.ledger.fail(f"{what}: {lost} tids differ after recovery", lost)
    wrong = _probe_mismatches(recovered, expected, probes, shape.k, shape.k_bound)
    if wrong:
        run.ledger.fail(f"{what}: {wrong} probes wrong after recovery", wrong)


# -- serve-read / serve-mixed ------------------------------------------------


class ServeSession(Session):
    """``QueryServer`` in a child process, ``N_CLIENTS`` closed-loop clients."""

    READS = 500  # per client per segment (serve-read)
    MIXED_READS, MIXED_WRITES = 540, 60  # 9 : 1

    def __init__(self, run: Run, *, mixed: bool, traced: bool = False, setups: int = 3):
        self.run = run
        self.mixed = mixed
        self.setup_s: list[float] = []
        self.clients: list = []
        self.child: ServerChild | None = None
        shape = run.inputs.shape
        self.reference = RankedJoinIndex.build(run.inputs.tuples, shape.k_bound)
        self.expected = {t.tid: t for t in run.inputs.tuples}
        self.streams = [run.inputs.write_stream(c) for c in range(N_CLIENTS)]
        self._n_segments = 0
        self._rid = 0
        for attempt in range(setups):
            self.close()
            started = clock()
            self.child = ServerChild(
                run.workdir / f"serve-{attempt}",
                run.inputs.tuples,
                shape.k_bound,
                service="durable" if mixed else "memory",
                compaction_threshold=COMPACTION_THRESHOLD,
                traced=traced,
            )
            self.clients = [connect(self.child.port) for _ in range(N_CLIENTS)]
            self.setup_s.append(clock() - started)

    def _plan(self, client: int) -> list:
        """One client's segment: ``(op, payload)`` per request."""
        inputs, segment = self.run.inputs, self._n_segments
        if not self.mixed:
            prefs = inputs.preferences(self.run.sized(self.READS), client, segment)
            return [("query", p) for p in prefs]
        n_writes = self.run.sized(self.MIXED_WRITES)
        per_write = self.MIXED_READS // self.MIXED_WRITES
        prefs = iter(inputs.preferences(n_writes * per_write, client, segment))
        plan = []
        for _ in range(n_writes):
            plan.extend(("query", next(prefs)) for _ in range(per_write))
            plan.append(self.streams[client].next())
        if self.run.fault == "refuse-write" and client == 0:
            self.run.fault = None
            plan.append(("insert", inputs.tuples.row(0)))  # tid is live
        return plan

    def segment(self, tracer=None) -> Segment:
        run, k = self.run, self.run.inputs.shape.k
        plans = [self._plan(c) for c in range(N_CLIENTS)]
        logs, wall = run_segment(self.clients, plans, k, tracer, self._rid)
        self._n_segments += 1
        self._rid += sum(len(p) for p in plans)
        reads, writes = [], []
        for plan, log in zip(plans, logs):
            run.ledger.attempted += len(plan)
            for i, why in log.failures:
                run.ledger.fail(f"{plan[i][0]} failed: {why}")
            answers = [a for _, a in log.answers]
            if self.mixed:
                run.check_shape(answers, k, "serve-mixed read")
                for i in log.acked:
                    op, payload = plan[i]
                    if op == "insert":
                        self.expected[payload.tid] = payload
                    else:
                        del self.expected[payload]
            else:
                asked = [plan[i][1] for i, _ in log.answers]
                run.check_equal(
                    answers, run.references(self.reference, asked, k), "serve-read"
                )
            reads += log.read_s
            writes += log.write_s
        return Segment.of(reads, writes, wall)

    def report(self) -> dict:
        return self.child.command("report")

    def probe(self) -> None:
        """Quiescent: served answers equal a scalar rebuild of the acked set."""
        shape = self.run.inputs.shape
        self.probes = self.run.inputs.preferences(N_PROBES, 7)
        self.run.ledger.attempted += N_PROBES
        wrong = _probe_mismatches(
            self.clients[0], self.expected, self.probes, shape.k, shape.k_bound
        )
        if wrong:
            self.run.ledger.fail(f"serve-mixed: {wrong} quiescent probes wrong", wrong)

    def disconnect(self) -> None:
        for client in self.clients:
            client.close()
        self.clients = []

    def crash_and_recover(self) -> float:
        """``SIGKILL`` the server, recover its directory here; ``recover_ms``."""
        self.disconnect()
        directory = self.child.directory
        self.child.kill()
        recover_ms, recovered = _best_recover_ms(directory, self.run.workdir)
        try:
            _check_recovered(
                self.run, recovered, self.expected, self.probes, "serve-mixed"
            )
        finally:
            recovered.close()
        return recover_ms

    def close(self) -> None:
        self.disconnect()
        if self.child is not None:
            self.child.close()


# -- core-read ---------------------------------------------------------------


class MemorySession(Session):
    """In-process ``RankedJoinIndex``: a scalar phase, then a batch phase."""

    QUERIES = 2000
    BATCHES, BATCH = 31, 64

    def __init__(self, run: Run, *, setups: int = 5):
        self.run = run
        shape = run.inputs.shape
        self.setup_s = []
        for _ in range(setups):
            started = clock()
            self.index = RankedJoinIndex.build(run.inputs.tuples, shape.k_bound)
            self.setup_s.append(clock() - started)
        # Before the harness allocates its own answer lists: what building
        # and holding the index costs, not what checking it costs.
        self.rss_mb = peak_rss_mb()
        self.prefs = run.inputs.preferences(run.sized(self.QUERIES), 0)
        reference = RankedJoinIndex.build(run.inputs.tuples, shape.k_bound)
        self.references = run.references(reference, self.prefs, shape.k)
        # Independent oracle, outside the timed path: a full scan shares
        # no code with the region machinery.
        oracle = FullScanTopK(run.inputs.tuples)
        every = range(0, len(self.prefs), 100)
        run.ledger.attempted += len(every)
        run.check_equal(
            [reference.query(self.prefs[i], shape.k) for i in every],
            [oracle.query(self.prefs[i], shape.k) for i in every],
            "core-read vs full scan",
        )

    def segment(self, tracer=None) -> Segment:
        return read_segment(
            self.run, self.index.query, self.prefs, self.references,
            "core.index.query", tracer,
        )  # fmt: skip

    def batch_segment(self) -> Segment:
        """``query_batch(64)``; latencies are per query inside the batch."""
        k, size = self.run.inputs.shape.k, self.BATCH
        n = min(self.run.sized(self.BATCHES), len(self.prefs) // size)
        latencies, answers = [], []
        began = clock()
        for b in range(n):
            chunk = self.prefs[b * size : (b + 1) * size]
            started = clock()
            batch = self.index.query_batch(chunk, k)
            latencies.append((clock() - started) / size)
            answers.extend(batch)
        wall = clock() - began
        self.run.ledger.attempted += len(answers)
        self.run.check_equal(answers, self.references[: n * size], "core-read batch")
        return Segment.of(latencies, [], wall)


# -- disk-read ---------------------------------------------------------------


def open_image(path: Path) -> DiskRankedJoinIndex:
    """16 buffer frames for a 200+-page image: working set >> cache."""
    return DiskRankedJoinIndex.open(
        path, mmap=True, buffer_capacity=16, cache_size=0
    )


def cold_open(path: Path, preference, k: int):
    """``open(mmap=True)`` + the first answer, on a fresh object."""
    fresh = open_image(path)
    try:
        return fresh.query(preference, k)
    finally:
        fresh.pager.close()


class DiskSession(Session):
    """The build-heavy index served from its mmap image."""

    QUERIES = 2000

    def __init__(self, run: Run, *, setups: int = 5):
        self.run = run
        shape = run.inputs.shape
        self.path = run.workdir / "image.rji"
        run.workdir.mkdir(parents=True, exist_ok=True)
        self.setup_s = []
        self.disk = None
        for _ in range(setups):
            self.close()
            started = clock()
            index = RankedJoinIndex.build(run.inputs.tuples, shape.k_bound)
            DiskRankedJoinIndex(index).save(self.path)
            self.disk = open_image(self.path)
            self.setup_s.append(clock() - started)
        self.rss_mb = peak_rss_mb()
        self.prefs = run.inputs.preferences(run.sized(self.QUERIES), 0)
        self.references = run.references(index, self.prefs, shape.k)

    def segment(self, tracer=None) -> Segment:
        return read_segment(
            self.run, self.disk.query, self.prefs, self.references,
            "storage.diskindex.query", tracer,
        )  # fmt: skip

    def cold_open_ms(self, repeats: int = 20) -> float:
        """Best of ``repeats`` cold opens; every first answer is checked."""
        k, preference = self.run.inputs.shape.k, self.prefs[0]
        times = []
        for _ in range(repeats):
            started = clock()
            answer = cold_open(self.path, preference, k)
            times.append((clock() - started) * 1e3)
            self.run.ledger.attempted += 1
            self.run.check_equal([answer], self.references[:1], "disk-read cold open")
        return min(times)

    def close(self) -> None:
        if self.disk is not None:
            self.disk.pager.close()
            self.disk = None


# -- durable-mixed -----------------------------------------------------------


class DurableSession(Session):
    """One in-process client on a ``DurableRankedJoinIndex``; fsync on."""

    READS, WRITES = 1000, 250  # 4 reads per write

    def __init__(self, run: Run, *, setups: int = 15):
        self.run = run
        shape = run.inputs.shape
        self.setup_s = []
        self.index = None
        for attempt in range(setups):
            self.close()
            self.directory = run.workdir / f"durable-{attempt}"
            started = clock()
            self.index = DurableRankedJoinIndex.create(
                self.directory,
                run.inputs.tuples,
                shape.k_bound,
                compaction_threshold=COMPACTION_THRESHOLD,
                fsync=True,
            )
            self.setup_s.append(clock() - started)
        self.expected = {t.tid: t for t in run.inputs.tuples}
        self.stream = run.inputs.write_stream(0)
        self.probes = run.inputs.preferences(N_PROBES, 7)
        self._n_segments = 0
        #: Latencies of the writes that did not compact; loop totals.
        self.nocompact_s: list[float] = []
        self.n_writes = 0
        self.loop_s = 0.0
        #: Traced segments only: reads seen, and how many met a delta.
        self.n_traced_reads = self.n_merged = 0
        #: ``(directory bytes, live tuples)`` after the first segment.
        self.space: tuple[int, int] | None = None

    def segment(self, tracer=None) -> Segment:
        run, index, k = self.run, self.index, self.run.inputs.shape.k
        n_writes = run.sized(self.WRITES)
        per_write = self.READS // self.WRITES
        prefs = run.inputs.preferences(n_writes * per_write, 0, self._n_segments)
        writes = [self.stream.next() for _ in range(n_writes)]
        if run.fault == "refuse-write":
            run.fault = None
            writes.append(("insert", run.inputs.tuples.row(0)))  # tid is live
            prefs += prefs[:per_write]
        self._n_segments += 1
        read_s, write_s, answers = [], [], []
        began = clock()
        for w, (op, payload) in enumerate(writes):
            for r in range(w * per_write, (w + 1) * per_write):
                if tracer is None:
                    started = clock()
                    answer = index.query(prefs[r], k)
                    read_s.append(clock() - started)
                else:
                    self.n_traced_reads += 1
                    self.n_merged += not index.delta.is_empty
                    started = clock()
                    answer = tracer.call(
                        "storage.durable.query", r, index.query, prefs[r], k
                    )
                    read_s.append(clock() - started)
                answers.append(answer)
            call = index.insert if op == "insert" else index.delete
            pauses = len(index.compaction_pauses)
            try:
                started = clock()
                if tracer is None:
                    call(payload)
                else:
                    tracer.call(f"storage.durable.{op}", w, call, payload)
                elapsed = clock() - started
            except ReproError as exc:
                run.ledger.fail(f"{op} refused: {exc!r}")
                continue
            write_s.append(elapsed)
            if len(index.compaction_pauses) == pauses:
                self.nocompact_s.append(elapsed)
            if op == "insert":
                self.expected[payload.tid] = payload
            else:
                del self.expected[payload]
        wall = clock() - began
        run.ledger.attempted += len(answers) + len(writes)
        run.check_shape(answers, k, "durable-mixed read")
        self.n_writes += len(write_s)
        self.loop_s += wall
        if self.space is None:
            # Space after a fixed number of writes (the first segment), so
            # it repeats exactly however many segments --seconds allows.
            self.space = (dir_bytes(self.directory), len(self.expected))
        return Segment.of(read_s, write_s, wall)

    def finish(self) -> dict:
        """Quiescent check, close, measure the directory, recover copies."""
        run, shape = self.run, self.run.inputs.shape
        run.ledger.attempted += N_PROBES
        wrong = _probe_mismatches(
            self.index, self.expected, self.probes, shape.k, shape.k_bound
        )
        if wrong:
            run.ledger.fail(f"durable-mixed: {wrong} quiescent probes wrong", wrong)
        pauses = list(self.index.compaction_pauses)
        self.close()
        recover_ms, recovered = _best_recover_ms(self.directory, run.workdir)
        try:
            _check_recovered(run, recovered, self.expected, self.probes, "durable-mixed")
            replayed = recovered.last_recovery.replayed
        finally:
            recovered.close()
        return {
            "recover_ms": recover_ms,
            "pauses_s": pauses,
            "replayed": replayed,
            "rewritten_bytes": sum(
                (self.directory / name).stat().st_size
                for name in ("base.rji", "pool.rjp")
            ),
        }

    def close(self) -> None:
        if self.index is not None:
            self.index.close()
            self.index = None
