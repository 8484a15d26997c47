"""Crash-recovery chaos runs: ``python -m repro.bench --recovery``.

Every scenario injects a crash into the durable write path (through the
:mod:`repro.faults` hooks, or by physically tearing the WAL tail),
recovers, and checks the durability contract:

* **acknowledged writes survive** — every write whose ``insert``/
  ``delete`` returned before the crash is present in the recovered
  live set with the exact values written;
* **unacknowledged writes are atomic** — the one in-flight write either
  survives whole (its WAL records were already durable) or is cleanly
  absent; nothing in between, and recovery itself raises nothing;
* **no corruption is served** — the recovered index's merged top-k is
  bit-identical to a scalar rebuild from the recovered live set, via
  :class:`~repro.storage.durable.DurableRankedJoinIndex` *and* via
  :meth:`~repro.storage.diskindex.DiskRankedJoinIndex.recover` (eager
  or ``mmap=True``, exercising both read paths CI runs).

The run writes ``RECOVERY_<name>.json`` and exits non-zero on any
violation — the report is the artifact CI uploads on failure.
"""

from __future__ import annotations

import shutil
import struct
import tempfile
import time
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from ..core.index import RankedJoinIndex
from ..core.tuples import RankTuple
from ..datagen.preferences import random_preferences
from ..errors import TransientStorageError
from ..faults import FaultPlan, arm, builtin_plan
from ..storage.diskindex import DiskRankedJoinIndex
from ..storage.durable import DurableRankedJoinIndex
from ..storage.wal import WAL_RECORD_SIZE
from .runner import BenchConfig, _make_tuples

__all__ = [
    "RECOVERY_CONFIG",
    "RecoveryBenchConfig",
    "run_recovery_benchmark",
]


@dataclass(frozen=True, slots=True)
class RecoveryBenchConfig:
    """One fully-seeded crash-recovery sweep."""

    name: str = "recovery"
    dataset: str = "uniform"
    n_tuples: int = 1500
    k_bound: int = 20
    k_query: int = 10
    seed: int = 7
    #: writes attempted before/after the armed crash point (too few for
    #: any rebuild trigger to fire on its own).
    n_writes: int = 12
    #: one delete per this many inserts (kept low: replayed tombstones
    #: must leave ``k_query`` exact on the image-recovery path).
    inserts_per_delete: int = 4
    n_probes: int = 16
    #: open the recovered image zero-copy (the ``--mmap`` CI leg).
    mmap: bool = False


#: The default (and CI) recovery sweep.
RECOVERY_CONFIG = RecoveryBenchConfig()

#: Inert writes the ``inert-log`` scenario logs ahead of the stream:
#: twice the tiers' default ``compaction_threshold`` (64), and below
#: the live count, so only the threshold could have cut the log short.
_N_INERT = 128

#: The crash scenarios the sweep always runs: the builtin crash plans,
#: the compaction crash at each of its four safety boundaries, a
#: physically torn WAL tail, and a crash on the last write of a log of
#: mostly inert records that no rebuild absorbed.
SCENARIOS = (
    "crash-append",
    "crash-commit",
    "crash-apply",
    "crash-compaction@0",
    "crash-compaction@1",
    "crash-compaction@2",
    "crash-compaction@3",
    "torn-tail",
    "inert-log",
)


def _inert_stream():
    """Inserts below every ranked tuple, each deleted again after it.

    Uniform ranks put at least ``k_bound`` indexed tuples strictly above
    ``(0.001, 0.001)``, so none of these can reach a top-K: the rebuild
    triggers ignore them and the WAL past the checkpoint just grows.
    """
    ops = []
    for i in range(_N_INERT):
        tid = 20_000_000 + i // 2
        if i % 2:
            ops.append(("delete", tid, 0.0, 0.0))
        else:
            ops.append(("insert", tid, 1e-4 * (1 + i % 7), 1e-4))
    return ops


def _write_stream(config: RecoveryBenchConfig, rng):
    """The deterministic op stream: mostly inserts, some deletes."""
    ops = []
    next_tid = 10_000_000
    for i in range(config.n_writes):
        if i and i % config.inserts_per_delete == 0:
            ops.append(("delete", int(rng.integers(config.n_tuples)), 0.0, 0.0))
        else:
            ops.append(
                (
                    "insert",
                    next_tid,
                    float(rng.random()),
                    float(rng.random()),
                )
            )
            next_tid += 1
    return ops


def _apply_op(index, pool, op):
    """Apply one stream op to the index and the shadow pool."""
    kind, tid, s1, s2 = op
    if kind == "insert":
        index.insert(RankTuple(tid, s1, s2))
        pool[tid] = RankTuple(tid, s1, s2)
    else:
        if tid in pool and len(pool) > 1:
            index.delete(tid)
            del pool[tid]


def _at(plan: FaultPlan, at: int) -> FaultPlan:
    """``plan`` with its one spec firing on operation ``at`` instead."""
    return replace(plan, specs=(replace(plan.specs[0], at=at),))


#: A WAL segment's header: magic, version, sequence number, CRC32.
_WAL_HEADER = struct.calcsize("<8sHI") + 4


def _tear_tail(wal_dir: Path) -> None:
    """Write half a record of garbage at the end of the log: a write
    torn mid-flight."""
    newest = max(wal_dir.glob("wal-*.seg"))
    raw = newest.read_bytes()
    # The log ends at the first slot of 0xFF fill (no record is all
    # 0xFF), so round the unfilled bytes up to a whole slot.
    used = len(raw.rstrip(b"\xff")) - _WAL_HEADER
    end = _WAL_HEADER + -(-used // WAL_RECORD_SIZE) * WAL_RECORD_SIZE
    with newest.open("r+b") as handle:
        handle.seek(end)
        handle.write(b"\x7f" * 20)


def _probe_mismatches(index, pool, preferences, k, k_bound) -> int:
    reference = RankedJoinIndex.build(sorted(pool.values()), k_bound)
    return sum(
        index.query(p, k) != reference.query(p, k) for p in preferences
    )


def _run_scenario(config: RecoveryBenchConfig, scenario: str) -> dict:
    base = _make_tuples(
        BenchConfig(
            dataset=config.dataset,
            n_tuples=config.n_tuples,
            k_bound=config.k_bound,
            seed=config.seed,
        )
    )
    preferences = random_preferences(config.n_probes, seed=config.seed + 3)
    rng = np.random.default_rng(config.seed + 41)
    stream = _write_stream(config, rng)
    violations: list[str] = []

    with tempfile.TemporaryDirectory(prefix="rji-recovery-") as tmp:
        directory, as_left = Path(tmp) / "index", Path(tmp) / "as-left"
        index = DurableRankedJoinIndex.create(directory, base, config.k_bound)
        acked = {
            int(t.tid): RankTuple(int(t.tid), float(t.s1), float(t.s2))
            for t in base
        }
        inflight = None
        crashed = False

        if scenario.startswith("crash-compaction"):
            boundary = int(scenario.split("@")[1])
            for op in stream:
                _apply_op(index, acked, op)
            arm(_at(builtin_plan("crash-compaction"), boundary), durable=index)
            try:
                index.compact()
            except TransientStorageError:
                crashed = True
        elif scenario == "torn-tail":
            for op in stream:
                _apply_op(index, acked, op)
            index.close()
            _tear_tail(directory / "wal")
            crashed = True
        else:
            if scenario == "inert-log":
                # Log the inert prefix, then crash applying the last write.
                *logged, last = _inert_stream() + stream
                for op in logged:
                    _apply_op(index, acked, op)
                stream = [last]
                plan = _at(builtin_plan("crash-apply"), 0)
            else:
                plan = builtin_plan(scenario)
            arm(plan, durable=index)
            for op in stream:
                shadow = dict(acked)
                try:
                    _apply_op(index, shadow, op)
                except TransientStorageError:
                    crashed = True
                    inflight = op
                    break
                acked = shadow
        if not crashed:
            violations.append(f"{scenario}: the crash plan never fired")
        if scenario != "torn-tail":
            index.close()
        # A replaying recovery saves a fresh image and checkpoint; the
        # disk front door opens the directory as the crash left it.
        shutil.copytree(directory, as_left)

        started = time.perf_counter()
        recovered = DurableRankedJoinIndex.recover(directory)
        recover_s = time.perf_counter() - started
        report = recovered.last_recovery
        live = {t.tid: t for t in recovered.live_tuples()}

        # Acked writes must all be present with the exact values.
        for tid, tuple_ in acked.items():
            if live.get(tid) != tuple_:
                violations.append(
                    f"{scenario}: acknowledged tuple {tid} lost or mangled"
                )
        # The in-flight write is all-or-nothing.
        expected = {frozenset(acked)}
        if inflight is not None:
            with_inflight = dict(acked)
            _apply_op_shadow = (
                with_inflight.__setitem__
                if inflight[0] == "insert"
                else lambda t, _v: with_inflight.pop(t, None)
            )
            _apply_op_shadow(
                inflight[1], RankTuple(inflight[1], inflight[2], inflight[3])
            )
            expected.add(frozenset(with_inflight))
        if frozenset(live) not in expected:
            violations.append(
                f"{scenario}: recovered live set matches neither the "
                "acknowledged state nor acknowledged+in-flight"
            )
        if scenario == "torn-tail" and report.torn_tails != 1:
            violations.append(
                f"{scenario}: expected 1 truncated tail, "
                f"saw {report.torn_tails}"
            )
        if scenario == "inert-log" and report.replayed < _N_INERT:
            violations.append(
                f"{scenario}: replayed {report.replayed} records, fewer "
                f"than the {_N_INERT} inert ones: a rebuild absorbed the log"
            )

        # Served answers must equal a from-scratch rebuild, on the
        # durable front-door and on the recovered disk image.
        wrong = _probe_mismatches(
            recovered, live, preferences, config.k_query, config.k_bound
        )
        if wrong:
            violations.append(
                f"{scenario}: {wrong} merged answers differ from rebuild"
            )
        recovered.close()

        disk = DiskRankedJoinIndex.recover(
            as_left / "base.rji",
            as_left / "wal",
            mmap=config.mmap,
        )
        disk_wrong = _probe_mismatches(
            disk, live, preferences, config.k_query, config.k_bound
        )
        if disk_wrong:
            violations.append(
                f"{scenario}: {disk_wrong} disk-recovery answers differ "
                "from rebuild"
            )
        disk_report = disk.last_recovery
        del disk
        if disk_report.replayed != report.replayed:
            violations.append(
                f"{scenario}: disk recovery replayed {disk_report.replayed} "
                f"records, durable recovery {report.replayed}"
            )

    return {
        "scenario": scenario,
        "crashed": crashed,
        "acked_writes": len(stream) if inflight is None else None,
        "recover_seconds": recover_s,
        "recovery": {
            "checkpoint_lsn": report.checkpoint_lsn,
            "last_lsn": report.last_lsn,
            "replayed": report.replayed,
            "torn_tails": report.torn_tails,
            "n_live": report.n_live,
        },
        "disk_recovery_replayed": disk_report.replayed,
        "violations": violations,
    }


def run_recovery_benchmark(
    config: RecoveryBenchConfig = RECOVERY_CONFIG,
) -> dict:
    """Run every crash scenario; returns the JSON-ready report."""
    results = [_run_scenario(config, scenario) for scenario in SCENARIOS]
    violations = [v for result in results for v in result["violations"]]
    return {
        "schema_version": 1,
        "config": asdict(config),
        "scenarios": results,
        "n_violations": len(violations),
        "violations": violations,
    }
