"""Cross-module integration tests: the full paths a user would take.

Each test exercises several subsystems together — relations -> rank-join
pruning -> dominating set -> sweep -> (disk) index -> queries — and
checks the final answers against independent oracles.
"""

import numpy as np
import pytest

from repro import Preference, RankedJoinIndex
from repro.baselines import HRJN, FullScanTopK
from repro.core.dominance import dominating_set
from repro.core.writepath import WritableRankedJoinIndex
from repro.datagen import (
    random_keyed_relations,
    random_preferences,
    real_web_relations,
)
from repro.relalg import (
    Database,
    rank_join_candidates,
    rank_join_full,
)
from repro.rtree import DiskRTree, RTree, topk_best_first, topk_paper
from repro.storage import DiskRankedJoinIndex


@pytest.fixture(scope="module")
def keyed_world():
    left, right = random_keyed_relations(300, 300, 40, seed=11)
    k = 8
    candidates = rank_join_candidates(
        left, right, ("key", "key"), ("rank", "rank"), k
    )
    full = rank_join_full(left, right, ("key", "key"), ("rank", "rank"))
    return left, right, k, candidates, full


class TestFourWayAgreement:
    """RJI, disk RJI, TopKrtree, HRJN and full scan must all agree."""

    def test_all_engines_agree(self, keyed_world):
        left, right, k, candidates, full = keyed_world
        index = RankedJoinIndex.build(candidates, k)
        disk = DiskRankedJoinIndex(index)
        dom = dominating_set(candidates, k)
        tree = RTree.bulk_load(zip(dom.s1, dom.s2, dom.tids), max_entries=16)
        disk_tree = DiskRTree(tree)
        hrjn = HRJN(
            left.column("key"),
            left.column("rank"),
            right.column("key"),
            right.column("rank"),
        )
        scan = FullScanTopK(full)

        for pref in random_preferences(40, seed=12):
            kk = 1 + (hash((pref.p1, pref.p2)) % k)
            expected = [r.score for r in scan.query(pref, kk)]
            for engine in (
                lambda: index.query(pref, kk),
                lambda: disk.query(pref, kk),
                lambda: topk_paper(tree, pref, kk)[0],
                lambda: topk_best_first(tree, pref, kk)[0],
                lambda: disk_tree.query(pref, kk),
                lambda: hrjn.query(pref, kk),
            ):
                np.testing.assert_allclose(
                    [r.score for r in engine()], expected, atol=1e-9
                )


class TestCatalogEndToEnd:
    def test_real_web_through_the_catalog(self):
        indeg, outdeg = real_web_relations(2000, seed=13)
        db = Database()
        db.register("indeg", indeg)
        db.register("outdeg", outdeg)
        db.create_ranked_join_index(
            "pages",
            "indeg",
            "outdeg",
            on=("page_id", "page_id"),
            ranks=("indegree", "outdegree"),
            k=10,
        )
        full = rank_join_full(
            indeg, outdeg, ("page_id", "page_id"), ("indegree", "outdegree")
        )
        for pref in random_preferences(15, seed=14):
            answer = db.top_k_join("pages", pref, 10)
            expected = np.sort(full.scores(pref.p1, pref.p2))[::-1][:10]
            np.testing.assert_allclose(
                answer.column("score"), expected, atol=1e-9
            )

    def test_answers_carry_joined_payload(self):
        indeg, outdeg = real_web_relations(500, seed=15)
        db = Database()
        db.register("indeg", indeg)
        db.register("outdeg", outdeg)
        db.create_ranked_join_index(
            "pages",
            "indeg",
            "outdeg",
            on=("page_id", "page_id"),
            ranks=("indegree", "outdegree"),
            k=3,
        )
        answer = db.top_k_join("pages", Preference(1.0, 1.0), 3)
        # join was on page_id, so both sides agree in every answer row
        left_ids = answer.column("page_id_l")
        right_ids = answer.column("page_id_r")
        np.testing.assert_array_equal(left_ids, right_ids)


class TestMaintainedIndexOnDisk:
    def test_insert_then_serialize(self, keyed_world):
        left, right, k, candidates, full = keyed_world
        split = len(candidates) // 2
        managed = WritableRankedJoinIndex.build(candidates[np.arange(split)], k)
        for i in range(split, len(candidates)):
            managed.insert(candidates.row(i))
        managed.compact()
        disk = DiskRankedJoinIndex(managed.index)
        scan = FullScanTopK(full)
        for pref in random_preferences(20, seed=16):
            np.testing.assert_allclose(
                [r.score for r in disk.query(pref, k)],
                [r.score for r in scan.query(pref, k)],
                atol=1e-9,
            )


class TestPersistence:
    def test_disk_index_pager_survives_save_load(self, tmp_path, keyed_world):
        _, _, k, candidates, full = keyed_world
        index = RankedJoinIndex.build(candidates, k)
        disk = DiskRankedJoinIndex(index)
        path = tmp_path / "rji.pages"
        disk.pager.save(path)
        from repro.storage import Pager

        loaded = Pager.load(path)
        assert loaded.n_pages == disk.pager.n_pages
        assert loaded.read(0).to_bytes() == disk.pager.read(0).to_bytes()
