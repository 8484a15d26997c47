"""repro.faults — deterministic, seeded fault injection.

The robustness contract of the reproduction (see
``docs/RELIABILITY.md``) is that a query served from persisted storage
either returns bit-identical correct results or raises a typed
:class:`~repro.errors.ReproError` — never a plausible-but-wrong top-k
answer.  This package is the
harness that *checks* that contract: declarative
:class:`~repro.faults.plan.FaultPlan`s describe what to break (failed
or corrupted page I/O, injected latency, on-disk bit rot, truncation),
and a :class:`~repro.faults.inject.FaultInjector` arms them into the
hooks carried by :class:`~repro.storage.pager.Pager`,
:class:`~repro.storage.buffer.BufferPool` and
:class:`~repro.storage.diskindex.DiskRankedJoinIndex`.

Everything is seeded and replayable, every injected fault is logged and
emitted through :mod:`repro.obs`, and the unarmed hook is a single
``is None`` test — production paths pay nothing.

Quickstart::

    from repro.faults import FaultPlan, FaultSpec, arm

    plan = FaultPlan(seed=7, specs=(
        FaultSpec(target="pager.read", kind="fail", every=5),
    ))
    injector = arm(plan, disk_index=disk)
    # ... run queries; every 5th physical read now raises
    # TransientStorageError, each fault recorded in injector.log.
"""

from .inject import (
    FaultInjector,
    FaultyFile,
    InjectedFault,
    LatencyRecorder,
    arm,
    disarm,
)
from .plan import (
    BUILTIN_PLANS,
    FaultPlan,
    FaultPlanError,
    FaultSpec,
    builtin_plan,
)

__all__ = [
    "BUILTIN_PLANS",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultSpec",
    "FaultyFile",
    "InjectedFault",
    "LatencyRecorder",
    "arm",
    "builtin_plan",
    "disarm",
]
