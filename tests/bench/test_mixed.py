"""Small-scale runs of the mixed and recovery bench scenarios.

CI runs the full sweeps (``--mixed`` gated against the committed
baseline, ``--recovery`` in the crash-recovery job); these tests keep
the harness itself honest at a size the unit suite can afford.
"""

from dataclasses import replace

from repro.bench.mixed import MIXED_CONFIG, run_mixed_benchmark
from repro.bench.recovery import RECOVERY_CONFIG, _run_scenario
from repro.core.writepath import TRIGGERS

TINY_MIXED = replace(
    MIXED_CONFIG,
    n_tuples=300,
    n_reads=120,
    n_preferences=16,
    compaction_threshold=12,
    fsync=False,
)

TINY_RECOVERY = replace(
    RECOVERY_CONFIG, n_tuples=200, n_writes=8, n_probes=6
)


def test_mixed_benchmark_is_exact_and_deterministic():
    report = run_mixed_benchmark(TINY_MIXED)
    counters = report["query_counters"]
    assert counters["mixed.mismatches"] == 0
    assert counters["mixed.recovered_mismatches"] == 0
    assert counters["mixed.recovered_pool_drift"] == 0
    assert counters["mixed.recovery_torn_tails"] == 0
    # Every write appended exactly one record and committed once.
    writes = report["mixed"]["n_inserts"] + report["mixed"]["n_deletes"]
    assert counters["wal.commits"] >= writes
    assert counters["compaction.runs"] == report["mixed"][
        "compaction_pauses"
    ]
    # The trigger phase rebuilds once per reason, at its stated count:
    # the log bound max(threshold, n_live), threshold visible inserts,
    # K / 2 charged deletes.
    assert [counters[f"triggers.{reason}"] for reason in TRIGGERS] == [1, 1, 1]
    assert counters["triggers.mismatches"] == 0
    assert report["triggers"]["writes_until_rebuild"] == {
        "log": 4 * TINY_MIXED.compaction_threshold,
        "visible": TINY_MIXED.compaction_threshold,
        "charged": TINY_MIXED.k_bound // 2,
    }
    # Same config, same counters: the gate in CI relies on determinism.
    again = run_mixed_benchmark(TINY_MIXED)
    assert again["query_counters"] == counters


def test_recovery_scenario_upholds_the_contract():
    result = _run_scenario(TINY_RECOVERY, "crash-commit")
    assert result["crashed"] is True
    assert result["violations"] == []


def test_torn_tail_scenario_truncates_once():
    result = _run_scenario(TINY_RECOVERY, "torn-tail")
    assert result["crashed"] is True
    assert result["recovery"]["torn_tails"] == 1
    assert result["violations"] == []


def test_inert_log_scenario_replays_past_the_threshold():
    # 128 inert records plus the stream: nothing rebuilt, so both
    # recovery front doors replay the whole log and answer exactly.
    result = _run_scenario(TINY_RECOVERY, "inert-log")
    assert result["crashed"] is True
    assert result["violations"] == []
    replayed = result["recovery"]["replayed"]
    assert replayed == result["disk_recovery_replayed"] >= 128
