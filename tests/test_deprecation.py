"""The deprecation policy in action (docs/API.md).

Two halves:

* the PR-2-era import shims (``repro.core.single``,
  ``repro.core.advisor``, ``repro.datagen.workloads``) served their one
  deprecation release and are now *retired* — importing them must fail
  loudly, and the real modules must carry the objects; so are the
  writable index's old constructor modules (``repro.core.managed``,
  ``repro.core.concurrent``), retired into ``repro.core.writepath``,
  and the modules no serving path calls, which left ``repro.core`` and
  ``repro.storage`` for ``repro.baselines``, ``repro.datagen`` and
  ``repro.bench`` (``repro.core.inspect`` was deleted outright, and so
  was ``repro.storage.resilient``: ``repro serve`` serves the bare disk
  index);
* the serving wrappers' legacy ``timeout=`` query keyword served its
  one deprecation release (it warned and forwarded to ``deadline=``)
  and is now *retired*: the query signatures accept only the canonical
  keyword, so ``timeout=`` fails loudly with ``TypeError``, and the
  shim ``repro.core.deadline.resolve_deadline`` is gone.
"""

import importlib
import sys
import warnings

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.core.writepath import WritableRankedJoinIndex, as_pool
from repro.storage.diskindex import DiskRankedJoinIndex

RETIRED = {
    "repro.core.single": ("repro.relalg.topk", "TopKSelectionIndex"),
    "repro.core.advisor": ("repro.bench.advisor", "advise_k"),
    "repro.datagen.workloads": ("repro.datagen.preferences", "random_preferences"),
    "repro.core.managed": ("repro.core.writepath", "WritableRankedJoinIndex"),
    "repro.core.concurrent": ("repro.core.writepath", "WritableRankedJoinIndex"),
    "repro.core.multidim": ("repro.baselines.multidim", "LayeredTopKIndex"),
    "repro.core.hull": ("repro.baselines.hull", "convex_hull_indices"),
    "repro.core.robust": ("repro.baselines.robust", "robust_topk_candidates"),
    "repro.core.workloads": ("repro.datagen.preferences", "grid_preferences"),
    "repro.core.verify": ("repro.bench.verify", "verify_index"),
    "repro.storage.advisor": ("repro.bench.advisor", "AdvisorReport"),
    # Deleted, not moved: ``repro index-describe`` reads the disk
    # index's own ``describe()``.
    "repro.core.inspect": ("repro.storage.diskindex", "DiskRankedJoinIndex"),
    # Deleted, not moved: ``repro serve`` serves the bare disk index.
    "repro.storage.resilient": ("repro.storage.diskindex", "DiskRankedJoinIndex"),
}


@pytest.mark.parametrize("module_name", sorted(RETIRED))
def test_retired_shims_are_gone(module_name):
    sys.modules.pop(module_name, None)
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module(module_name)


@pytest.mark.parametrize("module_name,attr", sorted(set(RETIRED.values())))
def test_replacement_modules_carry_the_objects(module_name, attr):
    module = importlib.import_module(module_name)
    assert hasattr(module, attr)


def test_core_no_longer_reexports_topk_selection_index():
    """``repro.core`` imports nothing above it; the class stays in relalg."""
    with pytest.raises(ImportError):
        from repro.core import TopKSelectionIndex  # noqa: F401
    from repro.relalg.topk import TopKSelectionIndex

    assert TopKSelectionIndex.__module__ == "repro.relalg.topk"


def test_core_exports_one_writable_index():
    """The managed and concurrent constructors retired into one class."""
    import repro.core

    assert "WritableRankedJoinIndex" in repro.core.__all__
    for retired in ("ManagedRankedJoinIndex", "ConcurrentRankedJoinIndex"):
        assert not hasattr(repro.core, retired)


def test_serving_packages_no_longer_reexport_what_moved():
    """A served index loads neither the moved modules nor the wrapper."""
    import repro.core
    import repro.storage

    moved = {
        repro.core: [
            "LayeredTopKIndex", "NDTupleSet", "nd_dominating_set",
            "topk_multiway_join_candidates", "robust_topk_candidates",
            "verify_index", "VerificationReport", "describe_index",
            "region_churn", "topk_join_candidates", "full_join_pairs",
            "encode_rid_pair", "decode_rid_pair",
        ],
        repro.storage: [
            "advise_k", "AdvisorReport", "CandidateReport",
            "ResilientDiskRankedJoinIndex", "RetryPolicy", "CircuitBreaker",
            "HealthSnapshot", "IndexVerifyReport", "RepairReport",
        ],
    }
    for package, names in moved.items():
        for name in names:
            assert not hasattr(package, name), (package.__name__, name)
            assert name not in package.__all__


def test_package_imports_stay_silent():
    """Normal package imports must not warn."""
    snapshot = {
        name: module
        for name, module in sys.modules.items()
        if name.startswith("repro")
    }
    for name in snapshot:
        sys.modules.pop(name)
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", DeprecationWarning)
            importlib.import_module("repro")
            importlib.import_module("repro.core")
            importlib.import_module("repro.datagen")
            importlib.import_module("repro.relalg")
            importlib.import_module("repro.serve")
    finally:
        # Restore the original module objects: later tests (and other
        # files in the same process) hold references to classes from
        # them, and isinstance checks must not see two identities.
        for name in [m for m in sys.modules if m.startswith("repro")]:
            sys.modules.pop(name)
        sys.modules.update(snapshot)


def _tuples(n=200, seed=0):
    rng = np.random.default_rng(seed)
    return RankTupleSet.from_tuples(
        zip(range(n), rng.random(n), rng.random(n))
    )


@pytest.fixture(scope="module")
def wrappers():
    """One instance of each served index whose front door once accepted
    timeout=."""
    tuples = _tuples()
    return {
        "concurrent": WritableRankedJoinIndex(
            RankedJoinIndex.build(tuples, 10), as_pool(tuples)
        ),
        "managed": WritableRankedJoinIndex.build(tuples, 10),
        "disk": DiskRankedJoinIndex(RankedJoinIndex.build(tuples, 10)),
    }


@pytest.mark.parametrize("name", ["concurrent", "managed", "disk"])
def test_timeout_kwarg_is_retired(wrappers, name):
    """The one-release policy completed: timeout= now fails loudly."""
    service = wrappers[name]
    with pytest.raises(TypeError, match="timeout"):
        service.query((2.0, 1.0), 5, timeout=30.0)


@pytest.mark.parametrize("name", ["concurrent", "managed", "disk"])
def test_timeout_kwarg_is_retired_on_query_batch(wrappers, name):
    service = wrappers[name]
    with pytest.raises(TypeError, match="timeout"):
        service.query_batch([(2.0, 1.0), 0.3], 5, timeout=30.0)


def test_resolve_deadline_shim_is_gone():
    """The warning shim retired along with the keyword it served."""
    module = importlib.import_module("repro.core.deadline")
    assert not hasattr(module, "resolve_deadline")
    assert "resolve_deadline" not in module.__all__


def test_canonical_deadline_accepts_seconds_and_deadline_objects(wrappers):
    from repro.core.deadline import Deadline

    service = wrappers["concurrent"]
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        a = service.query((2.0, 1.0), 5, deadline=30.0)
        b = service.query((2.0, 1.0), 5, deadline=Deadline(30.0))
    assert a == b
