"""Three-relation top-k joins — the paper's future-work direction.

Section 9 leaves joins of more than two relations open.  This example
runs the library's d-dimensional generalization end to end: a star
equi-join of three ranked relations (flights joined with airline service
scores and airport delay scores), pruned per the multiway Lemma 1,
indexed with dominance pruning plus convex-hull layers, and queried with
3-dimensional preference vectors.

Run with::

    python examples/multiway_join.py
"""

import numpy as np

from repro.baselines.multidim import (
    LayeredTopKIndex,
    topk_multiway_join_candidates,
)

N_FLIGHTS = 5_000
N_CARRIERS = 40
K = 10

rng = np.random.default_rng(99)


def main() -> None:
    # Three inputs sharing the carrier id as the join key; each carries
    # one rank attribute.
    flights = (
        rng.integers(0, N_CARRIERS, N_FLIGHTS),          # carrier id
        rng.uniform(0, 100, N_FLIGHTS),                  # seat availability
    )
    service = (
        np.arange(N_CARRIERS),
        rng.uniform(0, 10, N_CARRIERS),                  # service quality
    )
    punctuality = (
        np.arange(N_CARRIERS),
        rng.uniform(0, 10, N_CARRIERS),                  # on-time score
    )

    candidates, rows = topk_multiway_join_candidates(
        [flights, service, punctuality], K
    )
    print(
        f"3-way join candidates: {len(candidates)} "
        f"(full join would be {N_FLIGHTS} rows x 1 x 1 per key)"
    )

    index = LayeredTopKIndex(candidates, K)
    print(
        f"layered index: {len(index.dominating)} dominating tuples in "
        f"{index.n_layers} hull layers"
    )

    personas = {
        "seats matter most": [3.0, 1.0, 1.0],
        "comfort seeker": [0.5, 3.0, 1.0],
        "never-late traveller": [0.5, 1.0, 3.0],
    }
    for label, weights in personas.items():
        results = index.query(weights, 3)
        print(f"\n{label} (weights {weights}):")
        for result in results:
            flight_row, carrier_row, _ = rows[result.tid]
            print(
                f"  flight row {flight_row:>5} on carrier {carrier_row:>2} "
                f"score {result.score:7.2f}"
            )

    # Verify one persona against brute force over the candidate set.
    weights = np.array([1.0, 2.0, 0.5])
    expected = np.sort(candidates.scores(weights))[::-1][:5]
    got = [r.score for r in index.query(weights, 5)]
    assert np.allclose(got, expected), "index disagrees with brute force!"
    print(
        "\nverified against brute force for weights",
        [float(w) for w in weights],
    )


if __name__ == "__main__":
    main()
