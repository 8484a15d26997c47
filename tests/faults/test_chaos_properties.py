"""The chaos contract: correct or a typed error — never wrong.

Every fault plan, applied to any workload, must leave each query in one
of exactly two states:

1. bit-identical correct results, served from disk;
2. a typed :class:`~repro.errors.ReproError` subclass.

A plausible-but-wrong top-k answer is the one unacceptable outcome, and
what this suite exists to catch.
"""

import threading

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex, as_pool
from repro.errors import ReproError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    FaultSpec,
    LatencyRecorder,
    arm,
    builtin_plan,
)
from repro.storage.diskindex import DiskRankedJoinIndex

N_TUPLES = 400
K_BOUND = 10
K_QUERY = 5
N_QUERIES = 60


@pytest.fixture(scope="module")
def population():
    rng = np.random.default_rng(1234)
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, N_TUPLES), rng.uniform(0, 100, N_TUPLES)
    )
    index = RankedJoinIndex.build(tuples, K_BOUND)
    angles = np.linspace(0.01, 1.55, N_QUERIES)
    expected = [index.query(float(a), K_QUERY) for a in angles]
    return tuples, index, angles, expected


def _fresh_disk(index):
    return DiskRankedJoinIndex(index, buffer_capacity=4)


CHAOS_PLANS = [
    builtin_plan("transient-reads"),
    builtin_plan("storm"),
    builtin_plan("bitrot"),
    builtin_plan("slow-disk"),
    FaultPlan(
        name="mixed",
        seed=5,
        specs=(
            FaultSpec(target="pager.read", kind="fail", probability=0.3),
            FaultSpec(target="pager.read", kind="corrupt", every=9),
            FaultSpec(target="buffer.get", kind="fail", every=17),
            FaultSpec(target="disk.query", kind="fail", every=13),
        ),
    ),
    FaultPlan(
        name="poison-page",
        seed=8,
        specs=(
            FaultSpec(target="pager.read", kind="corrupt", every=1, page=2),
        ),
    ),
]


@pytest.mark.parametrize("plan", CHAOS_PLANS, ids=lambda p: p.name)
class TestChaosContract:
    def test_bare_disk_is_correct_or_typed_error(self, population, plan):
        """Every outcome is correct or a typed error."""
        _, index, angles, expected = population
        disk = _fresh_disk(index)
        arm(plan, disk_index=disk, sleep=lambda _: None)
        disk.pool.clear()
        outcomes = {"ok": 0, "typed": 0}
        for angle, want in zip(angles, expected):
            try:
                got = disk.query(float(angle), K_QUERY)
            except ReproError:
                outcomes["typed"] += 1
            else:
                assert got == want, (
                    f"plan {plan.name!r}: wrong-but-plausible answer at "
                    f"angle {float(angle):.4f}"
                )
                outcomes["ok"] += 1
        assert sum(outcomes.values()) == len(angles)

    def test_replay_is_deterministic(self, population, plan):
        """The same plan over the same workload injects the same faults."""
        _, index, angles, _ = population

        def run():
            disk = _fresh_disk(index)
            injector = arm(plan, disk_index=disk, sleep=lambda _: None)
            disk.pool.clear()
            outcomes = []
            for angle in angles:
                try:
                    disk.query(float(angle), K_QUERY)
                    outcomes.append("ok")
                except ReproError as exc:
                    outcomes.append(type(exc).__name__)
            return outcomes, list(injector.log)

        assert run() == run()


class TestConcurrentChaos:
    def test_eight_threads_under_injected_latency(self, population):
        """8 reader threads against a WritableRankedJoinIndex with
        latency injected through the observability hooks: all answers
        bit-identical, no deadlock, no timeout with a generous budget."""
        tuples, plain, angles, expected = population
        injector = FaultInjector(
            FaultPlan(
                name="obs-latency",
                seed=31,
                specs=(
                    FaultSpec(
                        target="recorder",
                        kind="latency",
                        probability=0.2,
                        delay_s=0.0002,
                    ),
                ),
            )
        )
        instrumented = RankedJoinIndex.build(
            tuples, K_BOUND, recorder=LatencyRecorder(injector)
        )
        shared = WritableRankedJoinIndex(instrumented, as_pool(tuples))
        errors = []
        mismatches = []

        def reader(worker: int):
            try:
                for i, (angle, want) in enumerate(zip(angles, expected)):
                    got = shared.query(float(angle), K_QUERY, deadline=30.0)
                    if got != want:
                        mismatches.append((worker, i))
            except BaseException as exc:  # noqa: BLE001 - collected and asserted below
                errors.append((worker, exc))

        threads = [
            threading.Thread(target=reader, args=(worker,))
            for worker in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        assert mismatches == []
        assert injector.n_injected > 0  # latency actually fired
