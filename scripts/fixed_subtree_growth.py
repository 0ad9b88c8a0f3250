#!/usr/bin/env python3
"""Growth of the fixed vertex sets of the unbounded-fixed-family witnesses:
for each parameter case the fixed set keeps touching the exploration
boundary, so no radius can certify boundedness.  The sizes are exact counts
of the class walk behind ``fixed_subtree``, made without enumerating a
vertex, so they reach radii whose fixed sets are far too large to list."""

import argparse
from itertools import accumulate

from hnnkit import (
    base_vertex,
    distance,
    label_str,
    make_bs,
    unbounded_fixed_witness_bs,
)
from hnnkit.calculus import format_word
from hnnkit.tree import _class_levels, _descend


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-radius", type=int, default=20)
    args = parser.parse_args()

    for m, n in [(4, 2), (2, 4), (2, 3), (3, 2)]:
        oracle = make_bs(m, n)
        gamma, family = unbounded_fixed_witness_bs(m, n)
        print(f"BS({m},{n}): gamma = {format_word(gamma)}")
        # one walk to the largest radius: the fixed set within radius r is
        # its levels down to depth r
        entry, c, _ = _descend(gamma)
        _, levels = _class_levels(oracle, entry, c, args.max_radius)
        counts = [0] * len(entry) + [sum(level.values()) for level in levels]
        sizes = list(accumulate(counts))
        width = len(str(sizes[-1]))
        for radius in range(1, args.max_radius + 1):
            size = sizes[min(radius, len(sizes) - 1)]
            touches = radius < len(counts) and counts[radius] > 0
            flag = "touches boundary" if touches else "bounded at this radius"
            print(f"  radius {radius:>2}: |fixed| = {size:>{width}}  ({flag})")
        sample = ", ".join(label_str(family(l)) for l in range(4))
        far = distance(base_vertex(oracle), family(8))
        print(f"  family: {sample}, ...  (distance of index 8: {far})")
        print()


if __name__ == "__main__":
    main()
