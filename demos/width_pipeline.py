#!/usr/bin/env python3
"""Look inside the decomposition pipeline on a random partial order:
incomparability graph, minimal fill, the interval order it leaves behind,
and the resulting nice bag sequence the solvers walk.

Run: python3 demos/width_pipeline.py
"""

import random

from kemeny.instances import random_partial_order
from kemeny.width import (
    clique_path_decomposition,
    cocomparability_graph,
    consistent_path_decomposition,
    exact_pathwidth,
    make_nice,
    pad_to_empty,
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

    g = cocomparability_graph(order)
    print(f"incomparability graph: {g.n} vertices, {g.edge_count} edges")
    print(f"exact pathwidth: {exact_pathwidth(g)}")

    raw, iota, filled = clique_path_decomposition(order)
    fill = [e for e in filled.edges() if e not in set(g.edges())]
    print(f"minimal fill: {fill}")
    print("interval order kept:", sorted(iota.strict_pairs()))
    print("clique bags in interval order:", " ".join(bag_str(b) for b in raw.bags))

    nice = make_nice(raw)
    padded = pad_to_empty(nice)
    print(f"nice sequence ({len(padded.bags)} bags, width {padded.width}):")
    print("  " + " ".join(bag_str(b) for b in padded.bags))

    cpd = consistent_path_decomposition(order)
    problems = cpd.validate()
    print("validator:", "all checks pass" if not problems else problems)


if __name__ == "__main__":
    main()
