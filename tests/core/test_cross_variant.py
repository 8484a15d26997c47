"""Cross-variant equivalence: every index flavour answers identically.

One generated input, five builds (standard, ordered, adaptive-merged,
fixed-merged, unpruned) and the disk image of each: all score sequences
must coincide with each other and with the full-scan oracle, across the
whole preference space.  This is the strongest single statement of the
library's internal consistency.
"""

import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.baselines.fullscan import FullScanTopK
from repro.core.index import RankedJoinIndex
from repro.core.scoring import Preference
from repro.core.tuples import RankTupleSet
from repro.storage.diskindex import DiskRankedJoinIndex

BUILDS = [
    ("standard", dict()),
    ("ordered", dict(variant="ordered")),
    ("merged-adaptive", dict(merge_slack=3)),
    ("merged-every", dict(merge_slack=3, merge_strategy="every")),
    ("unpruned", dict(prune=False)),
]


def _tuple_set(values) -> RankTupleSet:
    return RankTupleSet(
        np.arange(len(values)),
        np.array([float(a) for a, _ in values]),
        np.array([float(b) for _, b in values]),
    )


@settings(max_examples=20, deadline=None)
@given(
    st.lists(
        st.tuples(st.integers(0, 9), st.integers(0, 9)),
        min_size=1,
        max_size=25,
    ),
    st.integers(1, 5),
)
def test_all_variants_and_disk_images_agree(values, k):
    tuples = _tuple_set(values)
    scan = FullScanTopK(tuples)
    engines = []
    for label, options in BUILDS:
        index = RankedJoinIndex.build(tuples, k, **options)
        engines.append((label, index))
        engines.append((f"{label}+disk", DiskRankedJoinIndex(index)))

    for angle in np.linspace(0.01, 1.56, 9):
        pref = Preference.from_angle(float(angle))
        expected = [r.score for r in scan.query(pref, k)]
        for label, engine in engines:
            got = [r.score for r in engine.query(pref, k)]
            np.testing.assert_allclose(
                got, expected, atol=1e-9, err_msg=f"{label} at angle {angle}"
            )


@pytest.mark.parametrize("label,options", BUILDS)
def test_variants_on_continuous_data(label, options):
    rng = np.random.default_rng(zlib.crc32(repr(label).encode()))
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, 250), rng.uniform(0, 100, 250)
    )
    k = 7
    index = RankedJoinIndex.build(tuples, k, **options)
    scan = FullScanTopK(tuples)
    for _ in range(40):
        pref = Preference.from_angle(float(rng.uniform(0, np.pi / 2)))
        kk = int(rng.integers(1, k + 1))
        np.testing.assert_allclose(
            [r.score for r in index.query(pref, kk)],
            [r.score for r in scan.query(pref, kk)],
            atol=1e-9,
        )
