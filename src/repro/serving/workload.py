"""Serving workload generation: Zipf-skewed question repetition.

Real question traffic is heavy-tailed — a few questions account for most
requests ("Cheaper, Better, Faster, Stronger" builds its cost analysis on
exactly this redundancy).  ``zipf_workload`` draws a request stream over a
pool of distinct examples with rank-frequency ``p(r) ∝ 1/r^skew``, which
is what makes the exact-match result tier earn its keep in the serving
bench.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.datasets.types import Example

__all__ = ["spread_pool", "zipf_weights", "zipf_workload"]


def zipf_weights(n: int, skew: float = 1.2) -> np.ndarray:
    """Normalized rank-frequency weights ``p(r) ∝ 1/r^skew`` for n ranks.

    ``skew=0`` degenerates to uniform traffic; 1.2 is a typical web-query
    exponent.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    ranks = np.arange(1, n + 1, dtype=float)
    weights = ranks ** -skew
    return weights / weights.sum()


def spread_pool(examples: Sequence[Example], distinct: int) -> list[Example]:
    """Up to ``distinct`` examples dealt round-robin, one per database.

    Databases take turns in first-appearance order, so N questions span
    min(N, #dbs) databases — what a sharded ring needs to partition a
    workload over every shard.  A pure function of its inputs.
    """
    by_db: dict = {}
    for example in examples:
        by_db.setdefault(example.db_id, []).append(example)
    queues = list(by_db.values())
    pool, index = [], 0
    while len(pool) < distinct and any(queues):
        queue = queues[index % len(queues)]
        if queue:
            pool.append(queue.pop(0))
        index += 1
    return pool


def zipf_workload(
    examples: Sequence[Example],
    requests: int,
    skew: float = 1.2,
    seed: int = 0,
) -> list[Example]:
    """A request stream of ``requests`` draws over ``examples``.

    Which example gets which popularity rank is itself shuffled by the
    seed, so different seeds stress different questions; the draw sequence
    is fully deterministic per (examples, requests, skew, seed).
    """
    if not examples:
        raise ValueError("need at least one example")
    rng = np.random.default_rng(seed)
    order = rng.permutation(len(examples))
    weights = zipf_weights(len(examples), skew)
    picks = rng.choice(len(examples), size=requests, p=weights)
    return [examples[order[pick]] for pick in picks]
