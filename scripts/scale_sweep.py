#!/usr/bin/env python3
"""Run greenwalk commands end to end at the advertised sizes, one fresh interpreter per run.

For each n, writes the directed graph random_strongly_connected_digraph(n, 1,
extra=0.02) and the undirected random_connected_graph(n, 1, extra=0.02) as
edge lists, then runs ``python -m greenwalk.cli COMMAND --input FILE`` once
for every chain command on each graph, each in a fresh interpreter with
OPENBLAS_NUM_THREADS=1: hitting, green, exitfreq, mixing, dual, verify and
``simulate --start 0 --stop n-1`` (with SIMULATE_TRIALS walks) on both, and
spectral on the undirected graph only. Each run records its wall time, the
child's peak RSS (from wait4), the bytes it wrote to stdout with their
sha256, and its exit status; stdout is hashed as it arrives and never held.
The rest of the environment passes through to the children, so a
MALLOC_MMAP_THRESHOLD_ set by the caller reaches every run; the sweep
records it, with the numpy version and BLAS build. The last line is the
sweep as one JSON document, and the exit status is 1 when any run did not
exit 0.

Usage: python3 scripts/scale_sweep.py [--sizes N ...] [--dir DIR]
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from greenwalk.generators import random_connected_graph, random_strongly_connected_digraph

GRAPHS = {
    "directed": lambda n: random_strongly_connected_digraph(n, 1, extra=0.02),
    "undirected": lambda n: random_connected_graph(n, 1, extra=0.02),
}
SIMULATE_TRIALS = 100  # each walk takes about n steps in a Python loop; the default 10000 would take 100 times as long


def commands(n: int, kind: str) -> list[list[str]]:
    """The arguments of every chain command on a graph of this kind with n vertices."""
    argv = [[command] for command in ("hitting", "green", "exitfreq", "mixing", "dual", "verify")]
    if kind == "undirected":
        argv.append(["spectral"])
    argv.append(["simulate", "--start", "0", "--stop", str(n - 1), "--trials", str(SIMULATE_TRIALS)])
    return argv


def write_edge_list(g, path: Path) -> None:
    """One "src dst weight" line per arc; an undirected graph lists each edge once, under its header."""
    keep = g.src <= g.dst if g.undirected else np.ones(len(g.w), dtype=bool)
    lines = ["# undirected\n"] if g.undirected else []
    lines += [f"{i} {j} {w!r}\n" for i, j, w in zip(g.src[keep].tolist(), g.dst[keep].tolist(), g.w[keep].tolist())]
    path.write_text("".join(lines))


def run(argv: list[str], env: dict) -> dict:
    """One fresh interpreter running the CLI: wall time, peak RSS, stdout size and digest, exit status."""
    with tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "greenwalk.cli", *argv], stdout=subprocess.PIPE, stderr=err, env=env)
        digest, size = hashlib.sha256(), 0
        while block := proc.stdout.read(1 << 20):
            digest.update(block)
            size += len(block)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, so Popen does not wait again
        proc.stdout.close()
        err.seek(0)
        stderr = err.read().decode(errors="replace")
    return {
        "exit": proc.returncode,
        "wall_s": wall,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "stdout_bytes": size,
        "stdout_sha256": digest.hexdigest(),
        "stderr": stderr,
    }


def blas() -> str:
    try:
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{info.get('name')} {info.get('version')}"
    except (AttributeError, KeyError, TypeError, ValueError):  # the build report's layout varies by numpy version
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--dir", default=None, help="where to write the graphs (default: a temporary directory)")
    args = parser.parse_args()

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    header = f"{'n':>6}{'graph':>12}{'command':>9}{'exit':>5}{'wall s':>9}{'peak MB':>9}{'MB out':>9}  sha256"
    print(header)
    print("-" * (len(header) + 10))
    rows = []
    with tempfile.TemporaryDirectory() as scratch:
        folder = Path(args.dir or scratch)
        folder.mkdir(parents=True, exist_ok=True)
        for n in args.sizes:
            for kind, build in GRAPHS.items():
                path = folder / f"{kind}-{n}.edges"
                write_edge_list(build(n), path)
                for command, *options in commands(n, kind):
                    argv = [command, "--input", str(path), *options]
                    row = {"n": n, "graph": kind, "command": command, "options": options, **run(argv, env)}
                    rows.append(row)
                    print(
                        f"{n:>6}{kind:>12}{command:>9}{row['exit']:>5}{row['wall_s']:>9.3f}"
                        f"{row['peak_rss_mb']:>9.1f}{row['stdout_bytes'] / 2**20:>9.2f}  {row['stdout_sha256'][:16]}"
                    )
    sweep = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas(),
        "blas_threads": 1,
        "malloc_mmap_threshold": os.environ.get("MALLOC_MMAP_THRESHOLD_"),
        "runs": rows,
    }
    print(json.dumps(sweep))
    return int(any(row["exit"] != 0 for row in rows))


if __name__ == "__main__":
    sys.exit(main())
