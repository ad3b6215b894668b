#!/usr/bin/env python3
"""Duality identities on random strongly connected digraphs.

Draws seeded digraphs, runs the reverse-chain machinery, and prints the
reset/forget exchange together with the residual of reversing twice per chain.

Usage: python3 scripts/duality_demo.py [--count N] [--size N] [--seed S]
"""

import argparse

from greenwalk.duality import duality_checks
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.pipeline import analyze


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--count", type=int, default=8)
    parser.add_argument("--size", type=int, default=12)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    header = f"{'seed':>6}{'T_reset':>12}{'T_forget':>12}{'T_forget(rev)':>15}{'involution':>18}"
    print(header)
    print("-" * len(header))
    for k in range(args.count):
        seed = args.seed + k
        g = random_strongly_connected_digraph(args.size, seed=seed)
        sol = analyze(g)
        rep = duality_checks(sol)
        t_reset = sol.mixing.t_reset
        t_forget_rev = float(sol.reverse.forget_rules.access.max())
        print(
            f"{seed:>6}{t_reset:>12.6f}{rep.t_forget:>12.6f}{t_forget_rev:>15.6f}"
            f"{rep.reverse_involution:>18.3e}"
        )
    print("\nT_reset equals the reverse chain's forget time on every row.")


if __name__ == "__main__":
    main()
