"""Choosing K: the physical-design workflow an operator would run.

The RJI's construction bound K must be fixed before queries arrive.
This example simulates an observed workload of top-k requests, runs the
advisor over candidate bounds, builds the recommended index, verifies it
with the index verifier, and demonstrates what the advisor protected
against (a bound too small rejects deep queries; a bound too large pays
space for nothing).

Run with::

    python examples/advisor_workflow.py
"""

import numpy as np

from repro import RankedJoinIndex
from repro.bench.advisor import advise_k
from repro.bench.verify import verify_index
from repro.datagen import uniform_pairs
from repro.errors import QueryError
from repro.storage import DiskRankedJoinIndex

JOIN_SIZE = 15_000
N_OBSERVED = 400

rng = np.random.default_rng(2026)


def main() -> None:
    tuples = uniform_pairs(JOIN_SIZE, seed=1)

    # An application workload: mostly shallow queries, an occasional
    # deep one (a zipf-flavoured k distribution).
    observed_ks = np.minimum(
        rng.zipf(1.6, N_OBSERVED), 40
    ).astype(int).tolist()
    print(
        f"observed {N_OBSERVED} requests: median k = "
        f"{int(np.median(observed_ks))}, max k = {max(observed_ks)}"
    )

    report = advise_k(tuples, observed_ks, n_probe_queries=40, seed=2)
    print()
    print(report.render())

    recommended = report.recommended_k
    index = RankedJoinIndex.build(tuples, recommended, merge_slack=recommended)
    check = verify_index(index, reference=tuples, n_probes=60, seed=3)
    print(f"\nself-check of the recommended index: {check.render()}")

    # What a too-small bound would have cost: rejected deep queries.
    small = RankedJoinIndex.build(tuples, max(1, recommended // 4))
    from repro.core.scoring import Preference

    try:
        small.query(Preference(1.0, 1.0), recommended)
    except QueryError as exc:
        print(f"\nK={small.k_bound} would reject the p99 query: {exc}")

    # What a too-large bound costs: space.
    big = RankedJoinIndex.build(
        tuples, recommended * 4, merge_slack=recommended * 4
    )
    bytes_recommended = DiskRankedJoinIndex(index).total_bytes
    bytes_big = DiskRankedJoinIndex(big).total_bytes
    print(
        f"K={big.k_bound} would answer the same workload using "
        f"{bytes_big} bytes instead of {bytes_recommended}"
    )


if __name__ == "__main__":
    main()
