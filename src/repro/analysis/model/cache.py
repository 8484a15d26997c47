"""Content-hash-keyed incremental caching of the project index.

:func:`build_project_index` parses every ``src/repro`` module below a
root exactly once per *content hash*: a summary extracted for a file
whose SHA-256 digest is unchanged is reused from the on-disk cache
(default ``<root>/.rjilint_cache/``), so a warm ``--changed`` run
re-extracts only the modules a commit actually touched.  Cross-module
fixpoints (call graph, escape sets, lock-order edges) are always
recomputed from the summaries — they are cheap, and it keeps the cache
a pure function of file contents.

Cache hygiene: the pickle payload carries the digest of rjilint's own
sources (:func:`~repro.analysis.context.tool_digest`); any load failure
(missing, torn, written by other analysis code, class drift) silently
falls back to a full re-extraction — the cache is advisory, never
authoritative.

The builder reports ``analysis.files_indexed`` / ``analysis.cache_hits``
/ ``analysis.cache_misses`` through an optional
:class:`~repro.obs.recorder.Recorder` (names registered in
``repro/obs/names.py``).
"""

from __future__ import annotations

import hashlib
import pickle
from pathlib import Path

from ...obs import NULL_RECORDER, Recorder
from ..context import ModuleContext, tool_digest
from .project import ProjectIndex
from .summary import ModuleSummary, extract_module

__all__ = ["build_project_index", "cache_path", "file_digest"]

_CACHE_DIR = ".rjilint_cache"
_CACHE_FILE = "summaries.pkl"


def cache_path(root: Path) -> Path:
    return root / _CACHE_DIR / _CACHE_FILE


def file_digest(source: bytes) -> str:
    return hashlib.sha256(source).hexdigest()


def _load_cached(path: Path) -> dict[str, ModuleSummary]:
    try:
        with path.open("rb") as handle:
            payload = pickle.load(handle)
        if payload.get("format") != tool_digest():
            return {}
        summaries = payload.get("summaries", {})
        return summaries if isinstance(summaries, dict) else {}
    except Exception:  # noqa: BLE001 - the cache is advisory; rebuild on any damage
        return {}


def _store_cached(path: Path, summaries: dict[str, ModuleSummary]) -> None:
    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        with tmp.open("wb") as handle:
            pickle.dump(
                {"format": tool_digest(), "summaries": summaries}, handle
            )
        tmp.replace(path)
    except OSError:
        pass  # read-only checkout: run uncached


def _repro_files(root: Path) -> list[Path]:
    tree = root / "src" / "repro"
    if not tree.is_dir():
        return []
    return sorted(
        candidate
        for candidate in tree.rglob("*.py")
        if "__pycache__" not in candidate.parts
    )


def build_project_index(
    root: Path,
    *,
    use_cache: bool = True,
    recorder: Recorder = NULL_RECORDER,
) -> ProjectIndex | None:
    """Index the ``src/repro`` tree under ``root`` (None when absent).

    Summaries are keyed by relpath and reused when the file's digest
    matches the cache; syntactically broken files are skipped (the
    per-file runner reports the parse error separately).
    """
    files = _repro_files(root)
    if not files:
        return None
    cache_file = cache_path(root)
    cached = _load_cached(cache_file) if use_cache else {}
    summaries: dict[str, ModuleSummary] = {}
    hits = 0
    misses = 0
    for path in files:
        try:
            raw = path.read_bytes()
        except OSError:
            continue
        digest = file_digest(raw)
        try:
            rel = path.resolve().relative_to(root.resolve()).as_posix()
        except ValueError:
            rel = path.as_posix()
        previous = cached.get(rel)
        if previous is not None and previous.digest == digest:
            summaries[previous.module] = previous
            hits += 1
            continue
        try:
            ctx = ModuleContext.from_source(
                raw.decode("utf-8", errors="replace"), rel
            )
        except SyntaxError:
            continue
        summary = extract_module(ctx, digest)
        summaries[summary.module] = summary
        misses += 1
    if use_cache and misses:
        _store_cached(
            cache_file, {s.relpath: s for s in summaries.values()}
        )
    if recorder.enabled:
        recorder.count("analysis.files_indexed", len(summaries))
        recorder.count("analysis.cache_hits", hits)
        recorder.count("analysis.cache_misses", misses)
    return ProjectIndex(summaries)
