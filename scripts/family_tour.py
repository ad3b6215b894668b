#!/usr/bin/env python3
"""Tour the closed-form family oracles and print measures plus solver residuals.

Usage: python3 scripts/family_tour.py [--max-hypercube D]
"""

import argparse

from greenwalk import families
from greenwalk.generators import random_tree


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-hypercube", type=int, default=6)
    args = parser.parse_args()

    reports = [
        families.complete_oracle(8),
        families.bipartite_oracle(2, 3),
        families.bipartite_oracle(1, 5),
        families.path_oracle(12),
        families.cycle_oracle(11),
        families.tree_oracle(random_tree(16, seed=1)),
        families.toric_oracle((4, 5)),
    ]
    for d in range(1, args.max_hypercube + 1):
        reports.append(families.hypercube_oracle(d))

    header = f"{'family':<16}{'n':>6}{'t_mix':>12}{'t_reset':>12}{'t_hit':>12}{'worst residual':>18}"
    print(header)
    print("-" * len(header))
    def cell(rep, key):
        return f"{rep.measures[key]:>12.5f}" if key in rep.measures else f"{'-':>12}"

    for rep in reports:
        worst = max(rep.solver_residuals.values())
        label = f"{rep.family}{rep.params}"
        print(
            f"{label:<16}{rep.graph.n:>6}"
            + cell(rep, "t_mix")
            + cell(rep, "t_reset")
            + cell(rep, "t_hit")
            + f"{worst:>18.3e}"
        )


if __name__ == "__main__":
    main()
