#!/usr/bin/env python3
"""Time the float kernel against a per-row '%' join, and the streaming writer on whole payloads.

For each n, solves random_strongly_connected_digraph(n, 1, extra=0.02) once.
It formats the hitting times with greenwalk.cli._row_chunks, the kernel the
writers print every float array with, and with one "%.17g" join per row;
it asserts that both give the same text and prints the time per float of
each (best of --repeat).

Then, for the payloads `greenwalk hitting` and `greenwalk dual` print, it
runs greenwalk.cli.write_json, the writer main streams stdout through, two
ways: into a sink that counts and discards the text (the output size, the
time, best of --repeat, and the peak memory tracemalloc sees), and into an
io.StringIO that keeps it (the peak when a caller holds the output). The
last line is the table as JSON.

Usage: python3 scripts/render_sweep.py [--sizes N ...] [--repeat R]
"""

import argparse
import io
import json
import time
import tracemalloc

from greenwalk.cli import _cmd_dual, _cmd_hitting, _row_chunks, write_json
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.pipeline import analyze


class Discard(io.TextIOBase):
    """A stdout that counts and drops what it is given, so only the writer's own memory is traced."""

    def __init__(self):
        self.size = 0

    def write(self, text):
        self.size += len(text)
        return len(text)


def row_join(H) -> str:
    return "".join(", ".join(["%.17g"] * len(row)) % tuple(row) + "\n" for row in (H + 0.0).tolist())


def kernel(H) -> str:
    return "".join(_row_chunks(H, ", "))


def payloads(n: int) -> dict:
    chain = analyze(random_strongly_connected_digraph(n, 1, extra=0.02))
    hitting = _cmd_hitting(argparse.Namespace(format="json"), chain)
    dual = _cmd_dual(None, chain)
    return {"hitting": hitting, "dual": dual}


def best_time(fn, *args, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        fn(*args)
        best = min(best, time.perf_counter() - start)
    return best


def peak_traced_mb(fn, *args) -> float:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def write_into(sink):
    """write_json of a payload into a fresh sink(), which lives until the payload is written."""
    return lambda payload: write_json(sink().write, payload)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    header = f"{'n':>6}{'payload':>9}{'MB out':>9}{'row_join ns/f':>15}{'kernel ns/f':>13}"
    header += f"{'write s':>9}{'peak MB':>9}{'held MB':>9}"
    print(header)
    print("-" * len(header))
    table = []
    for n in args.sizes:
        for name, payload in payloads(n).items():
            row = {"n": n, "payload": name}
            if name == "hitting":
                H = payload["rows"]
                assert kernel(H) == row_join(H), f"n = {n}: the formatters disagree"
                for label, fmt in (("row_join", row_join), ("kernel", kernel)):
                    row[f"{label}_ns_per_float"] = best_time(fmt, H, repeat=args.repeat) / (n * n) * 1e9
            sink = Discard()
            write_json(sink.write, payload)
            row["output_mb"] = sink.size / 2**20
            row["write_s"] = best_time(write_into(Discard), payload, repeat=args.repeat)
            row["write_peak_traced_mb"] = peak_traced_mb(write_into(Discard), payload)
            row["held_peak_traced_mb"] = peak_traced_mb(write_into(io.StringIO), payload)
            table.append(row)
            joins = "".join(
                f"{row[key]:>{width}.1f}" if key in row else f"{'':>{width}}"
                for key, width in (("row_join_ns_per_float", 15), ("kernel_ns_per_float", 13))
            )
            print(
                f"{n:>6}{name:>9}{row['output_mb']:>9.2f}{joins}{row['write_s']:>9.3f}"
                f"{row['write_peak_traced_mb']:>9.2f}{row['held_peak_traced_mb']:>9.2f}"
            )
    print(json.dumps(table))


if __name__ == "__main__":
    main()
