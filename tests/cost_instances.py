"""Random completion instances: a random base order with random costs on
its incomparable pairs, for the suites that check the solvers against the
brute-force oracle; and the least cost of reaching each tail key, summed
along the solver's forward moves."""

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
            rng.randint(low, max_cost) if base.incomparable_to(x) >> y & 1 else 0
            for y in range(n)
        ]
        for x in range(n)
    ]
    return CostInstance(n, tuple(tuple(row) for row in cost), base)


def least_costs(moves):
    """Per position, each key reachable from the empty tail mapped to the
    least sum of steps along the ``forward_tables`` moves that reach it."""
    tables = [{(0, ()): 0}]
    for here in moves:
        nxt = {}
        for key, cost in tables[-1].items():
            for new_key, step, _ in here[key]:
                nxt[new_key] = min(cost + step, nxt.get(new_key, cost + step))
        tables.append(nxt)
    return tables
