"""Each rjilint rule fires on a minimal bad snippet and stays silent on
the corrected version."""

from repro.analysis import lint_source

CORE = "src/repro/core/snippet.py"
SQL = "src/repro/sql/snippet.py"
TESTS = "tests/core/test_snippet.py"


def rule_ids(source, relpath=CORE):
    return {finding.rule for finding in lint_source(source, relpath)}


class TestLayeringRJI001:
    def test_fires_on_core_importing_storage(self):
        source = "from ..storage.diskindex import DiskRankedJoinIndex\n__all__ = []\n"
        assert "RJI001" in rule_ids(source)

    def test_fires_on_absolute_upward_import(self):
        source = "import repro.sql.engine\n__all__ = []\n"
        assert "RJI001" in rule_ids(source)

    def test_fires_on_function_local_import(self):
        source = (
            "__all__ = ['f']\n"
            "def f():\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    from ..experiments import harness\n"
            "    return harness\n"
        )
        assert "RJI001" in rule_ids(source)

    def test_fires_on_core_importing_repro_root(self):
        source = "from .. import cli\n__all__ = []\n"
        assert "RJI001" in rule_ids(source)

    def test_silent_on_downward_import(self):
        source = "from ..errors import ConstructionError\n__all__ = []\n"
        assert "RJI001" not in rule_ids(source)
        sql = "from ..relalg.relation import Relation\n__all__ = []\n"
        assert "RJI001" not in rule_ids(sql, SQL)

    def test_silent_on_intra_package_import(self):
        source = "from .scoring import Preference\n__all__ = []\n"
        assert "RJI001" not in rule_ids(source)

    def test_silent_on_stdlib_and_third_party(self):
        source = "import math\nimport numpy as np\n__all__ = []\n"
        assert "RJI001" not in rule_ids(source)

    def test_silent_in_tests(self):
        source = "from repro.storage.diskindex import DiskRankedJoinIndex\n"
        assert "RJI001" not in rule_ids(source, TESTS)

    def test_nested_subpackage_relative_import_is_intra_package(self):
        source = "from ..registry import Rule\n__all__ = []\n"
        path = "src/repro/analysis/rules/snippet.py"
        assert "RJI001" not in rule_ids(source, path)


class TestUnseededRandomnessRJI003:
    def test_fires_on_unseeded_default_rng(self):
        source = "import numpy as np\n__all__ = []\nrng = np.random.default_rng()\n"
        assert "RJI003" in rule_ids(source)

    def test_fires_on_none_seed(self):
        source = (
            "import numpy as np\n__all__ = []\n"
            "rng = np.random.default_rng(None)\n"
        )
        assert "RJI003" in rule_ids(source)

    def test_fires_on_legacy_global_state(self):
        source = "import numpy as np\n__all__ = []\nx = np.random.uniform(0, 1)\n"
        assert "RJI003" in rule_ids(source)

    def test_fires_on_stdlib_random_import(self):
        source = "import random\n__all__ = []\n"
        assert "RJI003" in rule_ids(source)
        source = "from random import choice\n__all__ = []\n"
        assert "RJI003" in rule_ids(source)

    def test_silent_on_seeded_generator(self):
        source = (
            "import numpy as np\n__all__ = ['f']\n"
            "def f(seed):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return np.random.default_rng(seed)\n"
        )
        assert "RJI003" not in rule_ids(source)

    def test_silent_on_seed_keyword(self):
        source = (
            "import numpy as np\n__all__ = []\n"
            "rng = np.random.default_rng(seed=0)\n"
        )
        assert "RJI003" not in rule_ids(source)

    def test_silent_in_tests(self):
        source = "import numpy as np\nrng = np.random.default_rng()\n"
        assert "RJI003" not in rule_ids(source, TESTS)


class TestExceptionHygieneRJI004:
    def test_fires_on_bare_except(self):
        source = "__all__ = []\ntry:\n    f()\nexcept:\n    pass\n"
        assert "RJI004" in rule_ids(source)

    def test_fires_on_swallowed_broad_catch(self):
        source = "__all__ = []\ntry:\n    f()\nexcept Exception:\n    pass\n"
        assert "RJI004" in rule_ids(source)

    def test_fires_on_unused_bound_exception(self):
        source = (
            "__all__ = []\n"
            "try:\n    f()\nexcept Exception as exc:\n    result = None\n"
        )
        assert "RJI004" in rule_ids(source)

    def test_fires_in_tests_too(self):
        source = "try:\n    f()\nexcept:\n    pass\n"
        assert "RJI004" in rule_ids(source, TESTS)

    def test_silent_when_exception_is_reported(self):
        source = (
            "__all__ = ['log']\nlog = []\n"
            "try:\n    f()\nexcept Exception as exc:\n    log.append(str(exc))\n"
        )
        assert "RJI004" not in rule_ids(source)

    def test_silent_when_reraised(self):
        source = (
            "__all__ = []\n"
            "try:\n    f()\nexcept Exception:\n    raise\n"
        )
        assert "RJI004" not in rule_ids(source)

    def test_silent_with_noqa_annotation(self):
        source = (
            "__all__ = []\n"
            "try:\n    f()\n"
            "except Exception:  # noqa: BLE001 - deliberate best-effort\n"
            "    pass\n"
        )
        assert "RJI004" not in rule_ids(source)

    def test_silent_on_specific_exception(self):
        source = "__all__ = []\ntry:\n    f()\nexcept ValueError:\n    pass\n"
        assert "RJI004" not in rule_ids(source)


class TestDunderAllRJI005:
    def test_fires_on_missing_dunder_all(self):
        source = "def public_fn():\n    \"\"\"Doc.\"\"\"\n"
        assert "RJI005" in rule_ids(source)

    def test_fires_on_phantom_name(self):
        source = "__all__ = ['ghost']\n"
        assert "RJI005" in rule_ids(source)

    def test_fires_on_unexported_public_def(self):
        source = (
            "__all__ = ['a']\n"
            "def a():\n    \"\"\"Doc.\"\"\"\n"
            "def b():\n    \"\"\"Doc.\"\"\"\n"
        )
        assert "RJI005" in rule_ids(source)

    def test_fires_on_non_literal_dunder_all(self):
        source = "names = ['a']\n__all__ = names + ['b']\na = b = 1\n"
        assert "RJI005" in rule_ids(source)

    def test_fires_on_duplicate_entry(self):
        source = "__all__ = ['a', 'a']\na = 1\n"
        assert "RJI005" in rule_ids(source)

    def test_silent_on_consistent_module(self):
        source = (
            "__all__ = ['Thing', 'make_thing']\n"
            "class Thing:\n    \"\"\"Doc.\"\"\"\n"
            "def make_thing():\n    \"\"\"Doc.\"\"\"\n"
            "def _private_helper():\n    \"\"\"Doc.\"\"\"\n"
        )
        assert "RJI005" not in rule_ids(source)

    def test_silent_on_guarded_binding(self):
        source = (
            "__all__ = ['ConvexHull']\n"
            "try:\n    from scipy.spatial import ConvexHull\n"
            "except ImportError:\n    ConvexHull = None\n"
        )
        assert "RJI005" not in rule_ids(source)

    def test_silent_in_tests_and_main(self):
        source = "def helper():\n    pass\n"
        assert "RJI005" not in rule_ids(source, TESTS)
        assert "RJI005" not in rule_ids(source, "src/repro/analysis/__main__.py")


class TestFrozenConstantsRJI006:
    def test_fires_on_module_attribute_mutation(self):
        source = (
            "from ..storage import pages  # rjilint: disable=RJI001\n"
            "__all__ = []\n"
            "pages.DEFAULT_PAGE_SIZE = 1 << 20\n"
        )
        assert "RJI006" in rule_ids(source)

    def test_fires_on_global_rebinding(self):
        source = (
            "__all__ = ['tune']\nANGLE_TOL = 1e-12\n"
            "def tune():\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    global ANGLE_TOL\n"
            "    ANGLE_TOL = 1e-6\n"
        )
        assert "RJI006" in rule_ids(source)

    def test_fires_on_toplevel_rebinding(self):
        source = "__all__ = []\nK_DEFAULT = 50\nK_DEFAULT = 100\n"
        assert "RJI006" in rule_ids(source)

    def test_fires_on_augmented_constant(self):
        source = "__all__ = []\nMAX_K = 10\nMAX_K += 1\n"
        assert "RJI006" in rule_ids(source)

    def test_fires_on_setattr_outside_init(self):
        source = (
            "__all__ = ['poke']\n"
            "def poke(region):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    object.__setattr__(region, 'lo', 0.0)\n"
        )
        assert "RJI006" in rule_ids(source)

    def test_fires_in_tests_too(self):
        source = "import repro.core.sweep as sweep\nsweep.ANGLE_TOL = 0.1\n"
        assert "RJI006" in rule_ids(source, TESTS)

    def test_silent_on_single_binding_and_frozen_init(self):
        source = (
            "__all__ = ['Pair']\n"
            "HALF_PI = 1.5707963267948966\n"
            "class Pair:\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    def __init__(self, s1):\n"
            "        object.__setattr__(self, 's1', s1)\n"
        )
        assert "RJI006" not in rule_ids(source)

    def test_silent_on_lowercase_attribute_assignment(self):
        source = (
            "__all__ = ['set_lo']\n"
            "def set_lo(region, lo):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    region.lo = lo\n"
        )
        assert "RJI006" not in rule_ids(source)


class TestKBoundValidationRJI007:
    def test_fires_on_unvalidated_query(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" in rule_ids(source)

    def test_fires_when_k_only_checked_against_constant(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    if k < 1:\n"
            "        raise ValueError(k)\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" in rule_ids(source)

    def test_fires_on_robust_entry_point(self):
        source = (
            "__all__ = ['robust_candidates']\n"
            "def robust_candidates(index, lo, hi, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return index.collect(lo, hi)[:k]\n"
        )
        assert "RJI007" in rule_ids(source)

    def test_silent_on_bound_comparison(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    if k > self.k_bound:\n"
            "        raise ValueError(k)\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_on_effective_bound_comparison(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    if k > self.k_effective:\n"
            "        raise ValueError(k)\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_on_validator_call(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    self._validate_k(k)\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_on_delegation(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return self._index.query(preference, k)\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_on_functions_without_k(self):
        source = (
            "__all__ = ['query_all']\n"
            "def query_all(self, preference):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return self._evaluate(preference)\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_on_validator_helpers_named_query(self):
        source = (
            "__all__ = ['check_query']\n"
            "def check_query(tree, k):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    if k < 1:\n"
            "        raise ValueError(k)\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_with_disable_comment(self):
        source = (
            "__all__ = ['query']\n"
            "def query(self, preference, k):  # rjilint: disable=RJI007\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" not in rule_ids(source)

    def test_silent_in_tests(self):
        source = (
            "def query(self, preference, k):\n"
            "    return self._evaluate(preference)[:k]\n"
        )
        assert "RJI007" not in rule_ids(source, TESTS)


STORAGE = "src/repro/storage/snippet.py"


class TestIOCounterDisciplineRJI008:
    def test_fires_on_unmirrored_increment(self):
        source = (
            "__all__ = ['Pager']\n"
            "class Pager:\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    def read(self, page_id):\n"
            "        \"\"\"Doc.\"\"\"\n"
            "        self.counters.reads += 1\n"
            "        return self._pages[page_id]\n"
        )
        assert "RJI008" in rule_ids(source, STORAGE)

    def test_fires_on_each_counter_name(self):
        for counter in ("reads", "writes", "hits", "misses"):
            source = (
                "__all__ = ['bump']\n"
                "def bump(pool):\n"
                "    \"\"\"Doc.\"\"\"\n"
                f"    pool.{counter} += 1\n"
            )
            assert "RJI008" in rule_ids(source, STORAGE), counter

    def test_silent_when_recorder_count_present(self):
        source = (
            "__all__ = ['Pager']\n"
            "class Pager:\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    def read(self, page_id):\n"
            "        \"\"\"Doc.\"\"\"\n"
            "        self.counters.reads += 1\n"
            "        if self.recorder.enabled:\n"
            "            self.recorder.count('pager.reads')\n"
            "        return self._pages[page_id]\n"
        )
        assert "RJI008" not in rule_ids(source, STORAGE)

    def test_silent_with_local_recorder_alias(self):
        source = (
            "__all__ = ['fetch']\n"
            "def fetch(self, page_id):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    recorder = self.pager.recorder\n"
            "    self.hits += 1\n"
            "    recorder.count('buffer.hits')\n"
            "    return page_id\n"
        )
        assert "RJI008" not in rule_ids(source, STORAGE)

    def test_silent_on_plain_assignment_reset(self):
        source = (
            "__all__ = ['reset']\n"
            "def reset(self):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    self.reads = 0\n"
            "    self.writes = 0\n"
        )
        assert "RJI008" not in rule_ids(source, STORAGE)

    def test_silent_on_unrelated_counters(self):
        source = (
            "__all__ = ['walk']\n"
            "def walk(self, stats):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    stats.nodes_visited += 1\n"
        )
        assert "RJI008" not in rule_ids(source, STORAGE)

    def test_silent_outside_storage_package(self):
        source = (
            "__all__ = ['bump']\n"
            "def bump(pool):\n"
            "    \"\"\"Doc.\"\"\"\n"
            "    pool.reads += 1\n"
        )
        assert "RJI008" not in rule_ids(source, CORE)

    def test_silent_in_storage_tests(self):
        source = (
            "def test_bump(pool):\n"
            "    pool.reads += 1\n"
            "    assert pool.reads == 1\n"
        )
        assert "RJI008" not in rule_ids(source, "tests/storage/test_snippet.py")
