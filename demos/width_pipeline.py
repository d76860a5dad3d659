#!/usr/bin/env python3
"""Look inside the decomposition on a random partial order: incomparability
graph, the ideal lattice of the order, the width-optimal linear extension
chosen over it, and the nice bag sequence, from an empty bag to an empty
bag, that the solvers walk.

Run: python3 demos/width_pipeline.py
"""

import random

from kemeny.instances import random_partial_order
from kemeny.width import (
    cocomparability_graph,
    consistent_path_decomposition,
    ideal_lattice,
    width_optimal_extension,
)


def bag_str(mask):
    out = []
    v = 0
    while mask:
        if mask & 1:
            out.append(str(v))
        mask >>= 1
        v += 1
    return "{" + ",".join(out) + "}"


def main():
    rng = random.Random(5)
    order = random_partial_order(7, rng, density=0.35)
    print("strict pairs of the order:", sorted(order.strict_pairs()))

    edges = sum(row.bit_count() for row in cocomparability_graph(order)) // 2
    print(f"incomparability graph: {order.n} vertices, {edges} edges")

    lattice = ideal_lattice(order)
    sizes = [0] * order.n + [1]  # the full ideal has no moves, so no key
    for ideal in lattice:
        sizes[ideal.bit_count()] += 1
    print(f"ideal lattice: {sum(sizes)} ideals, by size {sizes}")

    layout = width_optimal_extension(order, lattice)
    print("width-optimal linear extension:", " < ".join(map(str, layout)))

    cpd = consistent_path_decomposition(order)
    dec = cpd.decomposition
    print(f"padded nice sequence ({len(dec.bags)} bags, width {dec.width}):")
    print("  " + " ".join(bag_str(b) for b in dec.bags))

    problems = cpd.validate()
    print("validator:", "all checks pass" if not problems else problems)


if __name__ == "__main__":
    main()
