"""What ``repro serve`` serves: the bare disk index, over a mapped image.

A heap page that fails its CRC fails the queries that read it, as a
typed :class:`~repro.errors.CorruptPageError` at the client, every
time; every other region keeps answering exactly what the in-memory
index answers.
"""

import math

import numpy as np
import pytest

from repro.core.index import RankedJoinIndex
from repro.core.tuples import RankTupleSet
from repro.errors import CorruptPageError
from repro.faults import FaultyFile
from repro.serve import Client, QueryServer
from repro.storage.diskindex import DiskRankedJoinIndex

K = 8
#: v2 pager header bytes preceding the first page image.
_HEADER_BYTES = 26


@pytest.fixture(scope="module")
def damaged(tmp_path_factory):
    """An image of 256-byte pages (about one region a page) whose middle
    heap page fails its CRC."""
    rng = np.random.default_rng(7)
    tuples = RankTupleSet.from_pairs(
        rng.uniform(0, 100, 300), rng.uniform(0, 100, 300)
    )
    index = RankedJoinIndex.build(tuples, K)
    disk = DiskRankedJoinIndex(index, page_size=256)
    path = tmp_path_factory.mktemp("served") / "index.rji"
    disk.save(path)
    page = 1 + disk.stats.heap_pages // 2
    FaultyFile(path).flip_byte(_HEADER_BYTES + page * 256 + 64)
    return index, path


@pytest.fixture()
def served(damaged):
    index, path = damaged
    disk = DiskRankedJoinIndex.open(path, mmap=True, cache_size=8)
    try:
        with QueryServer(disk, port=0) as srv:
            with Client(*srv.address) as client:
                yield index, disk, client
    finally:
        disk.pager.close()


def _split(index, client):
    """One angle inside each region, split by whether the served image
    can answer it; every answer checked against the in-memory index."""
    lo = index.store.lo.tolist()
    hi = lo[1:] + [math.pi / 2]
    lost, intact = [], []
    for angle in ((a + b) / 2 for a, b in zip(lo, hi)):
        try:
            got = client.query(angle, K)
        except CorruptPageError:
            lost.append(angle)
        else:
            assert got == index.query(angle, K), angle
            intact.append(angle)
    assert lost and intact
    return lost, intact


def test_a_damaged_page_fails_only_the_queries_that_read_it(served):
    index, _, client = served
    lost, intact = _split(index, client)
    # Past the five failures that once tripped a breaker for every
    # region: the damaged one keeps failing typed, and only it.
    for _ in range(6):
        with pytest.raises(CorruptPageError, match="checksum"):
            client.query(lost[0], K)
    for angle in intact:
        for k in (1, K):
            assert client.query(angle, k) == index.query(angle, k), angle


def test_query_batch_over_the_wire_equals_in_process(served):
    index, disk, client = served
    lost, intact = _split(index, client)
    assert client.query_batch(intact, K) == disk.query_batch(intact, K)
    assert client.query_batch(intact, K) == index.query_batch(intact, K)
    with pytest.raises(CorruptPageError):
        client.query_batch([intact[0], lost[0]], K)


def test_stats_reports_the_hot_region_cache(served):
    index, _, client = served
    _, intact = _split(index, client)
    before = client.stats()["cache"]
    for _ in range(2):  # the second descent is served from the cache
        client.query(intact[0], K)
    cache = client.stats()["cache"]
    assert cache["capacity"] == 8
    assert cache["misses"] == before["misses"] + 1
    assert cache["hits"] == before["hits"] + 1
