"""The whole-program model: extraction, stitching, fixpoints, caching."""

import pickle

from repro.analysis import ModuleContext
from repro.analysis.model import (
    ProjectIndex,
    build_project_index,
    cache_path,
    extract_module,
    module_name_for,
)
from repro.obs import MetricsRecorder


def _summary(source, relpath="src/repro/core/mod.py"):
    return extract_module(ModuleContext.from_source(source, relpath), "digest")


def _index(*sources):
    summaries = {}
    for source, relpath in sources:
        summary = _summary(source, relpath)
        summaries[summary.module] = summary
    return ProjectIndex(summaries)


class TestModuleNames:
    def test_maps_library_paths(self):
        assert module_name_for("src/repro/core/sweep.py") == "repro.core.sweep"
        assert module_name_for("src/repro/errors.py") == "repro.errors"
        assert module_name_for("src/repro/core/__init__.py") == "repro.core"

    def test_none_outside_library(self):
        assert module_name_for("tests/core/test_sweep.py") is None


class TestExtraction:
    def test_lock_kinds(self):
        summary = _summary(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._a = threading.Lock()\n"
            "        self._b = threading.RLock()\n"
            "        self._c = threading.Condition()\n"
        )
        cls = summary.classes["C"]
        assert cls.lock_attrs == {"_a": "lock", "_b": "rlock", "_c": "condition"}

    def test_with_region_marks_accesses_held(self):
        summary = _summary(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._x = 0\n"
            "    def inside(self):\n"
            "        with self._lock:\n"
            "            self._x += 1\n"
            "    def outside(self):\n"
            "        return self._x\n"
        )
        cls = summary.classes["C"]
        inside = [a for a in cls.methods["inside"].accesses if a.attr == "_x"]
        outside = [a for a in cls.methods["outside"].accesses if a.attr == "_x"]
        assert inside and inside[0].held == ("_lock",)
        assert inside[0].is_write
        assert outside and outside[0].held == ()

    def test_try_finally_release_forms_held_region(self):
        summary = _summary(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._x = 0\n"
            "    def get(self):\n"
            "        self._lock.acquire()\n"
            "        try:\n"
            "            return self._x\n"
            "        finally:\n"
            "            self._lock.release()\n"
        )
        method = summary.classes["C"].methods["get"]
        access = [a for a in method.accesses if a.attr == "_x"][0]
        assert access.held == ("_lock",)
        assert [a.attr for a in method.acquires] == ["_lock"]

    def test_guarded_by_annotation(self):
        summary = _summary(
            "import threading\n"
            "class C:\n"
            "    def __init__(self):\n"
            "        self._lock = threading.Lock()\n"
            "        self._t = {}  # rjilint: guarded-by(_lock)\n"
        )
        cls = summary.classes["C"]
        assert cls.guarded_annotations == {"_t": "_lock"}
        assert cls.annotation_lines["_t"] == 5

    def test_relative_import_resolution(self):
        summary = _summary(
            "from ..errors import StorageError\n",
            relpath="src/repro/storage/x.py",
        )
        assert summary.imports["StorageError"] == "repro.errors.StorageError"
        assert summary.resolve("StorageError") == "repro.errors.StorageError"
        assert summary.resolve("KeyError") == "builtins.KeyError"

    def test_property_detection(self):
        summary = _summary(
            "class C:\n"
            "    @property\n"
            "    def state(self):\n"
            "        return 1\n"
        )
        assert "state" in summary.classes["C"].properties

    def test_summary_is_picklable(self):
        summary = _summary("class C:\n    def m(self):\n        return 1\n")
        assert pickle.loads(pickle.dumps(summary)).module == summary.module


class TestProjectIndex:
    def test_builtin_ancestors(self):
        index = _index(("", "src/repro/core/a.py"))
        ancestors = index.ancestors("builtins.KeyError")
        assert "builtins.LookupError" in ancestors
        assert "builtins.BaseException" in ancestors

    def test_cross_module_ancestors(self):
        index = _index(
            (
                "class ReproError(Exception):\n    pass\n",
                "src/repro/errors.py",
            ),
            (
                "from ..errors import ReproError\n"
                "class MyError(ReproError):\n    pass\n",
                "src/repro/storage/y.py",
            ),
        )
        assert "repro.errors.ReproError" in index.ancestors(
            "repro.storage.y.MyError"
        )
        assert "builtins.BaseException" in index.ancestors(
            "repro.storage.y.MyError"
        )

    def test_escapes_propagate_and_absorb(self):
        index = _index(
            (
                "class C:\n"
                "    def helper(self):\n"
                "        raise KeyError('x')\n"
                "    def leaky(self):\n"
                "        return self.helper()\n"
                "    def safe(self):\n"
                "        try:\n"
                "            return self.helper()\n"
                "        except KeyError:\n"
                "            return None\n",
                "src/repro/core/c.py",
            )
        )
        assert "builtins.KeyError" in index.escapes("repro.core.c.C.leaky")
        assert index.escapes("repro.core.c.C.safe") == {}

    def test_struct_error_model(self):
        index = _index(
            (
                "import struct\n"
                "def decode(raw):\n"
                "    return struct.unpack('<I', raw)\n",
                "src/repro/storage/s.py",
            )
        )
        assert "struct.error" in index.escapes("repro.storage.s.decode")

    def test_may_acquire_is_transitive(self):
        index = _index(
            (
                "import threading\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self._m = threading.Lock()\n"
                "    def outer(self):\n"
                "        self.inner()\n"
                "    def inner(self):\n"
                "        with self._m:\n"
                "            pass\n",
                "src/repro/core/l.py",
            )
        )
        assert "repro.core.l.C._m" in index.may_acquire("repro.core.l.C.outer")

    def test_lock_order_edges_and_cycles(self):
        index = _index(
            (
                "import threading\n"
                "class C:\n"
                "    def __init__(self):\n"
                "        self._a = threading.Lock()\n"
                "        self._b = threading.Lock()\n"
                "    def ab(self):\n"
                "        with self._a:\n"
                "            with self._b:\n"
                "                pass\n"
                "    def ba(self):\n"
                "        with self._b:\n"
                "            with self._a:\n"
                "                pass\n",
                "src/repro/core/o.py",
            )
        )
        pairs = {(e.held, e.acquired) for e in index.lock_order_edges()}
        assert ("repro.core.o.C._a", "repro.core.o.C._b") in pairs
        assert ("repro.core.o.C._b", "repro.core.o.C._a") in pairs
        assert len(index.lock_cycles()) == 1


class TestCache:
    def _seed(self, tmp_path):
        tree = tmp_path / "src" / "repro" / "core"
        tree.mkdir(parents=True)
        (tree / "a.py").write_text("class A:\n    def m(self):\n        return 1\n")
        return tmp_path

    def test_cold_then_warm(self, tmp_path):
        root = self._seed(tmp_path)
        cold = MetricsRecorder()
        assert build_project_index(root, recorder=cold) is not None
        assert cold.counter("analysis.cache_misses") >= 1
        warm = MetricsRecorder()
        index = build_project_index(root, recorder=warm)
        assert index is not None
        assert warm.counter("analysis.cache_hits") >= 1
        assert warm.counter("analysis.cache_misses") == 0
        assert "repro.core.a" in index.modules

    def test_edit_invalidates_by_content_hash(self, tmp_path):
        root = self._seed(tmp_path)
        build_project_index(root)
        target = root / "src" / "repro" / "core" / "a.py"
        target.write_text("class A:\n    def m(self):\n        return 2\n")
        recorder = MetricsRecorder()
        build_project_index(root, recorder=recorder)
        assert recorder.counter("analysis.cache_misses") == 1

    def test_corrupt_cache_is_ignored(self, tmp_path):
        root = self._seed(tmp_path)
        build_project_index(root)
        cache_path(root).write_bytes(b"not a pickle")
        assert build_project_index(root) is not None

    def test_no_library_tree_returns_none(self, tmp_path):
        assert build_project_index(tmp_path) is None
