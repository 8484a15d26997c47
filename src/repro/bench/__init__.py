"""repro.bench — the reproducible benchmark harness.

Seeded workloads from :mod:`repro.datagen.preferences` over datasets
from :mod:`repro.datagen`, measured through :mod:`repro.obs`, reported
as ``BENCH_<name>.json``.  The CI smoke job runs
``python -m repro.bench --smoke``; the JSON schema is documented in
``docs/OBSERVABILITY.md``.  Beside it sit the offline tools that build
and probe indices: the K advisor (:mod:`.advisor`) and the index
verifier (:mod:`.verify`).
"""

from .chaos import load_plan, run_chaos_benchmark
from .compare import (
    ComparisonError,
    MetricDelta,
    ReportComparison,
    compare_reports,
    load_report,
    render_comparison,
)
from .mixed import MIXED_CONFIG, MixedBenchConfig, run_mixed_benchmark
from .openbench import OPEN_CONFIG, run_open_benchmark
from .recovery import (
    RECOVERY_CONFIG,
    RecoveryBenchConfig,
    run_recovery_benchmark,
)
from .runner import (
    BUILD_HEAVY_CONFIG,
    SMOKE_CONFIG,
    BenchConfig,
    run_benchmark,
    write_report,
)
from .serve import SERVE_CONFIG, ServeBenchConfig, run_serve_benchmark

__all__ = [
    "BUILD_HEAVY_CONFIG",
    "BenchConfig",
    "ComparisonError",
    "MIXED_CONFIG",
    "MetricDelta",
    "MixedBenchConfig",
    "OPEN_CONFIG",
    "RECOVERY_CONFIG",
    "RecoveryBenchConfig",
    "ReportComparison",
    "SERVE_CONFIG",
    "SMOKE_CONFIG",
    "ServeBenchConfig",
    "compare_reports",
    "load_plan",
    "load_report",
    "render_comparison",
    "run_benchmark",
    "run_chaos_benchmark",
    "run_mixed_benchmark",
    "run_open_benchmark",
    "run_recovery_benchmark",
    "run_serve_benchmark",
    "write_report",
]
