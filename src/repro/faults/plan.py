"""Fault plans: declarative, seeded descriptions of what to break.

A :class:`FaultPlan` is a list of :class:`FaultSpec` triggers plus one
seed.  Runtime faults (failed reads, corrupted page images, injected
latency) are armed into the storage hooks through
:class:`~repro.faults.inject.FaultInjector`; file faults (bit flips,
truncation) are applied to a persisted index image through
:class:`~repro.faults.inject.FaultyFile`.  Everything a plan does is a
pure function of the plan itself — two runs of the same plan against
the same workload inject the same faults at the same operations — so a
chaos run that finds a bug is a reproducer, not an anecdote.

Plans serialize to JSON (``python -m repro.bench --faults plan.json``),
and a few named plans ship built in for CI smoke runs.  The format is
documented in ``docs/RELIABILITY.md``.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

from ..errors import ReproError

__all__ = [
    "BUILTIN_PLANS",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "KINDS",
    "TARGETS",
    "builtin_plan",
]

#: Runtime operations a spec may target; ``file`` targets a saved image.
TARGETS = (
    "pager.read",
    "pager.write",
    "buffer.get",
    "disk.query",
    "recorder",
    "file",
    "wal.append",
    "wal.commit",
    "durable.apply",
    "compaction",
)

#: What happens when a spec fires.
KINDS = ("fail", "corrupt", "latency", "flip_byte", "truncate")

#: Kinds valid for the ``file`` target only.
_FILE_KINDS = frozenset({"flip_byte", "truncate"})


class FaultPlanError(ReproError):
    """A fault plan was malformed (unknown target, kind, or trigger)."""


@dataclass(frozen=True, slots=True)
class FaultSpec:
    """One fault trigger.

    ``target`` names the hooked operation; ``kind`` the effect.  Exactly
    one trigger selects when a runtime spec fires: ``at`` (the N-th
    matching operation, 0-based), ``every`` (every N-th operation), or
    ``probability`` (a seeded draw per operation).  ``page`` filters
    pager/buffer targets to one page id; ``count`` caps total fires.

    File specs (``target="file"``) ignore the runtime triggers and use
    ``offset``/``length`` instead: ``flip_byte`` XOR-flips the byte at
    ``offset`` (``mask`` selects bits), ``truncate`` cuts the file to
    ``length`` bytes.
    """

    target: str
    kind: str
    at: int | None = None
    every: int | None = None
    probability: float | None = None
    page: int | None = None
    count: int | None = None
    delay_s: float = 0.0
    bit: int | None = None
    offset: int | None = None
    length: int | None = None
    mask: int = 0xFF

    def __post_init__(self) -> None:
        if self.target not in TARGETS:
            raise FaultPlanError(f"unknown fault target {self.target!r}")
        if self.kind not in KINDS:
            raise FaultPlanError(f"unknown fault kind {self.kind!r}")
        if (self.kind in _FILE_KINDS) != (self.target == "file"):
            raise FaultPlanError(
                f"kind {self.kind!r} and target {self.target!r} do not agree"
            )
        if self.target == "file":
            if self.kind == "flip_byte" and self.offset is None:
                raise FaultPlanError("flip_byte requires an offset")
            if self.kind == "truncate" and self.length is None:
                raise FaultPlanError("truncate requires a length")
            return
        triggers = [
            trigger
            for trigger in (self.at, self.every, self.probability)
            if trigger is not None
        ]
        if len(triggers) != 1:
            raise FaultPlanError(
                "exactly one of at/every/probability must be set for "
                f"runtime target {self.target!r}"
            )
        if self.every is not None and self.every < 1:
            raise FaultPlanError("every must be >= 1")
        if self.probability is not None and not 0.0 <= self.probability <= 1.0:
            raise FaultPlanError("probability must be in [0, 1]")
        if self.kind == "latency" and self.delay_s < 0:
            raise FaultPlanError("delay_s must be >= 0")
        if self.kind == "corrupt" and self.target not in (
            "pager.read",
            "pager.write",
        ):
            raise FaultPlanError("corrupt applies to pager.read/pager.write")


@dataclass(frozen=True, slots=True)
class FaultPlan:
    """A named, seeded collection of fault specs."""

    name: str = "plan"
    seed: int = 0
    specs: tuple[FaultSpec, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(self, "specs", tuple(self.specs))

    @property
    def runtime_specs(self) -> tuple[FaultSpec, ...]:
        """Specs armed into the live storage hooks."""
        return tuple(s for s in self.specs if s.target != "file")

    @property
    def file_specs(self) -> tuple[FaultSpec, ...]:
        """Specs applied to a persisted file image."""
        return tuple(s for s in self.specs if s.target == "file")

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "seed": self.seed,
            "specs": [asdict(spec) for spec in self.specs],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        try:
            specs = tuple(
                FaultSpec(**spec) for spec in data.get("specs", [])
            )
            return cls(
                name=str(data.get("name", "plan")),
                seed=int(data.get("seed", 0)),
                specs=specs,
            )
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(data, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(data)

    @classmethod
    def load(cls, path: str | Path) -> "FaultPlan":
        """Read a plan from a JSON file."""
        return cls.from_json(Path(path).read_text())

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        path.write_text(self.to_json())
        return path


#: Named plans for CI smoke runs and quick interactive chaos sessions.
BUILTIN_PLANS: dict[str, FaultPlan] = {
    # Every 7th physical page read fails: each query that hits one
    # must raise a typed TransientStorageError, and every other query
    # must answer exactly.
    "transient-reads": FaultPlan(
        name="transient-reads",
        seed=7,
        specs=(
            FaultSpec(target="pager.read", kind="fail", every=7),
        ),
    ),
    # Three in five physical page reads fail: each query that hits one
    # ends in a typed error, and none in a wrong answer.  A warmed
    # buffer pool leaves few physical reads, so most queries answer.
    "storm": FaultPlan(
        name="storm",
        seed=11,
        specs=(
            FaultSpec(target="pager.read", kind="fail", probability=0.6),
        ),
    ),
    # Flip one bit in every 3rd page image read: the checksum layer
    # must turn each into a typed CorruptPageError, never a wrong
    # answer.  The cadence is short because a warmed buffer pool leaves
    # few physical reads for the injector to see.
    "bitrot": FaultPlan(
        name="bitrot",
        seed=13,
        specs=(
            FaultSpec(target="pager.read", kind="corrupt", every=3),
        ),
    ),
    # Slow every 5th read by a millisecond: exercises deadlines.
    "slow-disk": FaultPlan(
        name="slow-disk",
        seed=17,
        specs=(
            FaultSpec(
                target="pager.read", kind="latency", every=5, delay_s=0.001
            ),
        ),
    ),
    # Crash the process (well: raise out of the write path) on the 6th
    # WAL append — before the record is buffered.  The write was never
    # acknowledged, so recovery must show it cleanly absent.
    "crash-append": FaultPlan(
        name="crash-append",
        seed=19,
        specs=(
            FaultSpec(target="wal.append", kind="fail", at=5),
        ),
    ),
    # Crash on the 4th commit — the fsync never happens, the pending
    # records never reach the log.  Unacknowledged writes vanish; every
    # earlier committed write must survive.
    "crash-commit": FaultPlan(
        name="crash-commit",
        seed=23,
        specs=(
            FaultSpec(target="wal.commit", kind="fail", at=3),
        ),
    ),
    # Crash *between* the WAL commit and the in-memory delta apply: the
    # write is durable but was never served.  Recovery must replay it —
    # this is the window that distinguishes write-ahead from write-behind.
    "crash-apply": FaultPlan(
        name="crash-apply",
        seed=29,
        specs=(
            FaultSpec(target="durable.apply", kind="fail", at=3),
        ),
    ),
    # Crash inside compaction, at each of its crash-safety boundaries in
    # turn (`at` selects which: 0=before anything, 1=after the fresh
    # build, 2=after the base image save, 3=after the pool snapshot,
    # before the WAL prune).  The WAL plus the last durable snapshot
    # must reconstruct every acknowledged write regardless.
    "crash-compaction": FaultPlan(
        name="crash-compaction",
        seed=31,
        specs=(
            FaultSpec(target="compaction", kind="fail", at=0),
        ),
    ),
}


def builtin_plan(name: str) -> FaultPlan:
    """Look up a built-in plan by name (raises :class:`FaultPlanError`)."""
    try:
        return BUILTIN_PLANS[name]
    except KeyError:
        raise FaultPlanError(
            f"unknown built-in fault plan {name!r}; "
            f"choose from {sorted(BUILTIN_PLANS)}"
        ) from None
