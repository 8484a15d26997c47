"""Tests for the disk B+-tree (bulk load, predecessor search)."""

import bisect
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import StorageError
from repro.storage.btree import BPlusTree, BTreeSearchStats
from repro.storage.buffer import BufferPool
from repro.storage.pager import Pager


def _build(keys, values, page_size=128):
    pager = Pager(page_size)
    tree = BPlusTree.bulk_load(pager, keys, values)
    return tree, BufferPool(pager, 16)


def _expected(keys, values, probe):
    """What ``search_le`` answers: the predecessor entry and the next key."""
    position = bisect.bisect_right(keys, probe) - 1
    upper = keys[position + 1] if position + 1 < len(keys) else None
    return keys[position], values[position], upper


def _reference_descent(tree, pool, probe):
    """Nodes visited and keys compared by a ``bisect_right`` over each
    node's decoded keys: the cost a descent had before it reported the
    next key, which it must keep."""
    page_id, nodes, compared = tree.root_page_id, 0, 0
    for level in range(tree.height):
        page = pool.get(page_id)
        nodes += 1
        leaf = level == tree.height - 1
        first = 8 if leaf else 16
        keys = [page.read_f64(first + 16 * i) for i in range(page.read_u16(1))]
        lo, hi = 0, len(keys)
        while lo < hi:
            mid = (lo + hi) // 2
            compared += 1
            if probe < keys[mid]:
                hi = mid
            else:
                lo = mid + 1
        if not leaf:
            page_id = page.read_i64(8 + 16 * lo)
    return nodes, compared


class TestBulkLoadValidation:
    def test_empty_rejected(self):
        with pytest.raises(StorageError, match="empty"):
            BPlusTree.bulk_load(Pager(128), [], [])

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(StorageError, match="parallel"):
            BPlusTree.bulk_load(Pager(128), [1.0], [1, 2])

    def test_unsorted_keys_rejected(self):
        with pytest.raises(StorageError, match="increasing"):
            BPlusTree.bulk_load(Pager(128), [1.0, 0.5], [1, 2])

    def test_duplicate_keys_rejected(self):
        with pytest.raises(StorageError, match="increasing"):
            BPlusTree.bulk_load(Pager(128), [1.0, 1.0], [1, 2])

    def test_smallest_page_size_still_works(self):
        pager = Pager(64)  # leaf capacity 3: the smallest legal geometry
        tree = BPlusTree.bulk_load(pager, [0.0, 1.0, 2.0, 3.0], [0, 1, 2, 3])
        pool = BufferPool(pager, 4)
        assert tree.search_le(2.5, pool) == (2.0, 2, 3.0)


class TestSearch:
    def test_single_entry(self):
        tree, pool = _build([0.0], [42])
        assert tree.search_le(0.0, pool) == (0.0, 42, None)
        assert tree.search_le(100.0, pool) == (0.0, 42, None)

    def test_probe_before_first_key_raises(self):
        tree, pool = _build([1.0, 2.0], [10, 20])
        with pytest.raises(StorageError, match="precedes"):
            tree.search_le(0.5, pool)

    def test_exact_and_between_keys(self):
        keys = [0.0, 1.0, 2.0, 3.0]
        tree, pool = _build(keys, [0, 10, 20, 30])
        assert tree.search_le(1.0, pool) == (1.0, 10, 2.0)
        assert tree.search_le(1.5, pool) == (1.0, 10, 2.0)
        assert tree.search_le(2.999, pool) == (2.0, 20, 3.0)
        assert tree.search_le(3.0, pool) == (3.0, 30, None)

    def test_multi_level_tree(self):
        keys = [float(i) for i in range(500)]
        values = [i * 3 for i in range(500)]
        tree, pool = _build(keys, values, page_size=128)
        assert tree.height >= 3
        for probe in (0.0, 17.2, 253.9, 499.0, 10_000.0):
            assert tree.search_le(probe, pool) == _expected(keys, values, probe)

    def test_stats_counts_height_nodes(self):
        keys = [float(i) for i in range(500)]
        tree, pool = _build(keys, list(range(500)), page_size=128)
        stats = BTreeSearchStats()
        tree.search_le(250.0, pool, stats)
        assert stats.nodes_visited == tree.height

    def test_upper_bound_is_the_next_stored_key(self):
        # Leaves of 6 entries, internal nodes of 7 children: four levels,
        # so a leaf's last entry takes its bound from a parent separator,
        # sometimes one two or three levels up.
        keys = [i * 0.25 for i in range(300)]
        values = [i * 7 for i in range(300)]
        tree, pool = _build(keys, values, page_size=112)
        assert tree.height == 4
        probes = [p for key in keys for p in (key, key + 0.125)]
        probes += [math.nextafter(key, -math.inf) for key in keys[1:]]
        for probe in probes + [math.inf]:
            stats = BTreeSearchStats()
            assert tree.search_le(probe, pool, stats) == _expected(
                keys, values, probe
            ), probe
            assert (stats.nodes_visited, stats.keys_compared) == (
                _reference_descent(tree, pool, probe)
            ), probe


class TestSearchCost:
    """The node search is logarithmic in the fanout, by count not clock."""

    @staticmethod
    def _capacity(page_size):
        return (page_size - 16) // 16

    def _assert_bound(self, keys, page_size, probes):
        values = list(range(len(keys)))
        tree, pool = _build(keys, values, page_size=page_size)
        per_node = math.ceil(math.log2(self._capacity(page_size) + 1))
        worst = 0
        for probe in probes:
            stats = BTreeSearchStats()
            assert tree.search_le(probe, pool, stats) == _expected(
                keys, values, probe
            )
            assert stats.nodes_visited == tree.height
            assert 1 <= stats.keys_compared <= stats.nodes_visited * per_node
            worst = max(worst, stats.keys_compared)
        return tree, worst

    def test_full_leaf_costs_log2_of_its_keys(self):
        keys = [float(i) for i in range(255)]
        probes = keys + [k + 0.5 for k in keys] + [1e9]
        tree, worst = self._assert_bound(keys, 4096, probes)
        assert tree.height == 1
        assert worst == 8  # ceil(log2(255 + 1)); a linear decode costs 255

    @pytest.mark.parametrize("page_size", [64, 128, 4096])
    def test_multi_level_descent_is_logarithmic_per_node(self, page_size):
        n = 3 * (self._capacity(page_size) + 1) ** 2 // 2
        keys = [float(i) for i in range(n)]
        step = max(1, n // 400)
        probes = keys[::step] + [k + 0.25 for k in keys[::step]] + [keys[-1]]
        tree, _ = self._assert_bound(keys, page_size, probes)
        assert tree.height >= 2


class TestIteration:
    def test_iter_entries_in_order(self):
        keys = [float(i) * 0.5 for i in range(77)]
        tree, pool = _build(keys, list(range(77)))
        got = list(tree.iter_entries(pool))
        assert got == list(zip(keys, range(77)))

    def test_check_invariants(self):
        keys = [float(i) for i in range(120)]
        tree, pool = _build(keys, list(range(120)))
        tree.check_invariants(pool)

    @pytest.mark.parametrize("damage", ["count", "order", "height"])
    def test_inconsistent_tree_is_typed(self, damage):
        keys = [float(i) for i in range(120)]
        tree, _ = _build(keys, list(range(120)))
        pager = tree.pager
        if damage == "count":
            tree = BPlusTree(pager, tree.root_page_id, tree.height, 121)
        elif damage == "order":  # swap the first leaf's first two keys
            first_leaf = tree._page_ids[0]
            page = pager.read(first_leaf)
            a, b = page.read_f64(8), page.read_f64(24)
            page.write_f64(8, b)
            page.write_f64(24, a)
            pager.write(first_leaf, page)
        else:  # a root that is internal, read as a leaf
            tree = BPlusTree(pager, tree.root_page_id, 1, tree.n_entries)
        pool = BufferPool(pager, 16)
        match = {"count": "yields", "order": "out of order"}.get(
            damage, "bookkeeping"
        )
        with pytest.raises(StorageError, match=match):
            if damage == "height":
                tree.search_le(5.0, pool)
            else:
                tree.check_invariants(pool)


class TestProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.integers(0, 10_000), min_size=1, max_size=300, unique=True
        ),
        st.lists(st.floats(-1, 10_001, allow_nan=False), min_size=1, max_size=20),
        st.sampled_from([128, 256, 4096]),
    )
    def test_matches_bisect_oracle(self, int_keys, probes, page_size):
        keys = sorted(float(k) for k in int_keys)
        values = list(range(len(keys)))
        tree, pool = _build(keys, values, page_size=page_size)
        tree.check_invariants(pool)
        # Where an in-page binary search could go wrong: probes equal to
        # stored keys, one ulp either side of them, signed zeros,
        # subnormals, infinity and NaN (which bisect sends to the end).
        edges = [0.0, -0.0, 5e-324, -5e-324, 2.2e-308, math.inf, math.nan]
        for key in keys[:: max(1, len(keys) // 16)] + [keys[0], keys[-1]]:
            edges += [
                key,
                math.nextafter(key, -math.inf),
                math.nextafter(key, math.inf),
            ]
        for probe in probes + edges:
            position = bisect.bisect_right(keys, probe) - 1
            if position < 0:
                with pytest.raises(StorageError):
                    tree.search_le(probe, pool)
            else:
                assert tree.search_le(probe, pool) == _expected(
                    keys, values, probe
                )
