#!/usr/bin/env python3
"""Print how close every residual check comes to its limit on large chains and oracles.

Runs each command that reads a limit (hitting, green and exitfreq at targets
pi, uniform and vertex 0, mixing, spectral on undirected graphs, dual and
verify) on a path, a cycle and random_strongly_connected_digraph(n, 1,
extra=0.02), each also at --lazy 0.5, and then path_oracle(n),
cycle_oracle(n), tree_oracle(random_tree(n, 1, weighted=True)),
hypercube_oracle(10) and toric_oracle((32, 32)). Every
check counts: the ones the library raises through ``errors.require`` (a
wrapper records them, passing or not) and the ones commands return. For
each check name it prints the worst residual/limit and where it occurred;
``pessimal_formulas_<vertex>`` counts as one name. The last line is the
table as JSON. Exits 1 when a ratio exceeds 1 or a command raises.

At n = 2000 it takes about 1.5 minutes and 0.8 GB on one core of a Xeon
with OpenBLAS on one thread.

Usage: python3 scripts/tolerance_sweep.py [--n N]
"""

import argparse
import json
import re
import sys

from greenwalk import cli, errors, families
from greenwalk.generators import random_strongly_connected_digraph, random_tree

_records = []


def _recording(real):
    def require(name, residual, limit, *error):
        _records.append((name, float(residual), float(limit)))
        return real(name, residual, limit, *error)

    return require


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
    # every library module that raises checks binds errors.require at import; cli has imported them all
    real = errors.require
    for name, module in list(sys.modules.items()):
        if name.startswith("greenwalk.") and getattr(module, "require", None) is real:
            module.require = _recording(real)

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
            _records.clear()
            chain = cli.analyze(g, lazy)
            for argv in _commands(g.undirected):
                where = f"{' '.join(argv)} {label}" + (" --lazy 0.5" if lazy else "")
                args = commands.parse_args([argv[0], "--input", label, *argv[1:]])
                try:
                    checks = args.run(args, chain)[1]
                except errors.GreenWalkError as exc:
                    checks = []
                    raised.append(f"{where}: {exc}")
                note(where, _records + checks)
                _records.clear()
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
        _records.clear()
        try:
            oracle()
        except errors.GreenWalkError as exc:
            raised.append(f"{label}: {exc}")
        note(label, _records)
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
