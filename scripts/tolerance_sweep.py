#!/usr/bin/env python3
"""Print how close every residual check comes to its limit on large chains and oracles.

Runs each command that reads a limit (hitting, green and exitfreq at targets
pi, uniform and vertex 0, mixing, spectral on undirected graphs, dual and
verify) on a path, a cycle and random_strongly_connected_digraph(n, 1,
extra=0.02), each also at --lazy 0.5, and solves hitting_column on each of
those chains at vertex 0 and at argmin pi, whose checks count as
column_fundamental and column_first_step. Then it runs path_oracle(n),
cycle_oracle(n), tree_oracle(random_tree(n, 1, weighted=True)),
hypercube_oracle(10) and toric_oracle((32, 32)). Every check the library
makes through ``errors.require`` counts: an ``errors.recorded()`` ledger
records it passing or not, and ``verify``, which keeps a ledger of its own,
prints its checks. For each check name it prints the worst residual/limit
and where it occurred; ``pessimal_formulas_<vertex>`` counts as one name.
The last line is the table as JSON. Inside the ledger no check raises: a
failing one shows in the table with a ratio above 1, next to the checks made
after it, and the ``raised:`` lines list only errors that carry no check.
Exits 1 when a ratio exceeds 1 or a command raises.

At n = 2000 it takes about 1.5 minutes and 0.8 GB on one core of a Xeon
with OpenBLAS on one thread.

Usage: python3 scripts/tolerance_sweep.py [--n N]
"""

import argparse
import json
import re
import sys

from greenwalk import cli, errors, families, hitting
from greenwalk.generators import random_strongly_connected_digraph, random_tree


def _commands(undirected: bool):
    yield ["hitting"]
    for target in ("pi", "uniform", "0"):
        yield ["green", "--target", target]
        yield ["exitfreq", "--target", target]
    yield ["mixing"]
    if undirected:
        yield ["spectral"]
    yield ["dual"]
    yield ["verify"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--n", type=int, default=2000, help="vertices of the path, cycle and digraph, and of the path, cycle and tree oracles")
    n = parser.parse_args().n
    worst: dict[str, tuple[float, str]] = {}
    raised = []

    def note(where, checks):
        for name, residual, limit in checks:
            name = re.sub(r"_\d+$", "", name)
            ratio = residual / limit + 0.0 if limit > 0 else float("inf")
            if name not in worst or not ratio <= worst[name][0]:
                worst[name] = (ratio, where)

    commands = cli._build_parser()
    graphs = {
        f"path({n})": families.path_graph(n),
        f"cycle({n})": families.cycle_graph(n),
        f"digraph({n}, 1)": random_strongly_connected_digraph(n, 1, extra=0.02),
    }
    for label, g in graphs.items():
        for lazy in (0.0, 0.5):
            with errors.recorded() as ledger:
                chain = cli.analyze(g, lazy)
                for argv in _commands(g.undirected):
                    where = f"{' '.join(argv)} {label}" + (" --lazy 0.5" if lazy else "")
                    args = commands.parse_args([argv[0], "--input", label, *argv[1:]])
                    try:
                        output = args.run(args, chain)
                        note(where, [(name, c["residual"], c["limit"]) for name, c in output.get("checks", {}).items()])
                    except errors.GreenWalkError as exc:
                        raised.append(f"{where}: {exc}")
                    note(where, ledger)
                    ledger.clear()
                for j in sorted({0, int(chain.stationary.probs.argmin())}):
                    where = f"hitting_column {j} {label}" + (" --lazy 0.5" if lazy else "")
                    try:
                        hitting.hitting_column(chain.transition, chain.stationary, j)
                    except errors.GreenWalkError as exc:
                        raised.append(f"{where}: {exc}")
                    note(where, [(f"column_{name}", *rest) for name, *rest in ledger])
                    ledger.clear()
                del chain
            print(f"done {label}" + (" --lazy 0.5" if lazy else ""), file=sys.stderr, flush=True)

    oracles = {
        f"path_oracle({n})": lambda: families.path_oracle(n),
        f"cycle_oracle({n})": lambda: families.cycle_oracle(n),
        f"tree_oracle(random_tree({n}, 1, weighted=True))": lambda: families.tree_oracle(random_tree(n, 1, weighted=True)),
        "hypercube_oracle(10)": lambda: families.hypercube_oracle(10),
        "toric_oracle((32, 32))": lambda: families.toric_oracle((32, 32)),
    }
    for label, oracle in oracles.items():
        with errors.recorded() as ledger:
            try:
                oracle()
            except errors.GreenWalkError as exc:
                raised.append(f"{label}: {exc}")
        note(label, ledger)
        print(f"done {label}", file=sys.stderr, flush=True)

    print(f"{'check':34s} {'residual/limit':>14s}  worst at")
    for name, (ratio, where) in sorted(worst.items()):
        print(f"{name:34s} {ratio:14.3e}  {where}")
    for line in raised:
        print(f"raised: {line}")
    print(json.dumps({name: ratio for name, (ratio, _) in sorted(worst.items())}))
    return 1 if raised or any(not ratio <= 1.0 for ratio, _ in worst.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
