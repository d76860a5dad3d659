"""Random completion instances: a random base order with random costs on
its incomparable pairs, for the suites that check the solvers against the
brute-force oracle."""

import random

from kemeny.instances import random_partial_order
from kemeny.orders import CostInstance


def random_cost_instance(
    n: int,
    rng: random.Random,
    density: float = 0.4,
    max_cost: int = 4,
    positive: bool = False,
) -> CostInstance:
    """Random completion instance over a random base order. With
    ``positive`` every incomparable pair costs at least 1 both ways."""
    base = random_partial_order(n, rng, density)
    low = 1 if positive else 0
    cost = [
        [
            0 if x == y or not base.incomparable(x, y) else rng.randint(low, max_cost)
            for y in range(n)
        ]
        for x in range(n)
    ]
    return CostInstance(n, tuple(tuple(row) for row in cost), base)
