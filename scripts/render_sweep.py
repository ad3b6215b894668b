#!/usr/bin/env python3
"""Time the float kernel against the per-row '%' join on hitting-time matrices.

For each n, builds the payload `greenwalk hitting` prints for
random_strongly_connected_digraph(n, 1, extra=0.02). It formats the hitting
times with greenwalk.cli._format_rows, the kernel render_json prints
matrices with, and with one greenwalk.cli._float_row per row, the "%.17g"
join render_json prints vectors with. It asserts that both give the same
rows and prints the time per float of each (best of --repeat). It also
prints the best time of render_json on the whole payload and the peak
memory tracemalloc sees while it renders. The last line is the table as
JSON.

Usage: python3 scripts/render_sweep.py [--sizes N ...] [--repeat R]
"""

import argparse
import json
import time
import tracemalloc

from greenwalk.cli import _float_row, _format_rows, render_json
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.hitting import hit_time
from greenwalk.pipeline import analyze


def row_join(H) -> list[str]:
    return [_float_row(row, ", ") for row in H]


def kernel(H) -> list[str]:
    return _format_rows(H, ", ")


def hitting_payload(n: int) -> dict:
    sol = analyze(random_strongly_connected_digraph(n, 1, extra=0.02))
    t_hit, residual = hit_time(sol.hitting, sol.stationary)
    return {
        "n": n,
        "target": sol.stationary.probs,
        "rows": sol.hitting.values,
        "residuals": {"t_hit": t_hit, "random_target": residual},
    }


def best_time(render, payload, repeat: int) -> float:
    best = float("inf")
    for _ in range(repeat):
        start = time.perf_counter()
        render(payload)
        best = min(best, time.perf_counter() - start)
    return best


def peak_traced_mb(render, payload) -> float:
    tracemalloc.start()
    try:
        render(payload)
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=[250, 500, 1000, 2000])
    parser.add_argument("--repeat", type=int, default=3)
    args = parser.parse_args()

    formatters = {"row_join": row_join, "kernel": kernel}
    header = f"{'n':>6}{'floats':>10}{'MB out':>9}" + "".join(f"{name + ' ns/float':>20}" for name in formatters)
    header += f"{'speed-up':>10}{'render_json s':>15}{'peak MB':>9}"
    print(header)
    print("-" * len(header))
    table = []
    for n in args.sizes:
        payload = hitting_payload(n)
        H = payload["rows"]
        assert kernel(H) == row_join(H), f"n = {n}: the formatters disagree"
        floats = n * n
        row = {"n": n, "floats": floats, "output_mb": len(render_json(payload)) / 2**20}
        for name, fmt in formatters.items():
            row[f"{name}_ns_per_float"] = best_time(fmt, H, args.repeat) / floats * 1e9
        row["speedup"] = row["row_join_ns_per_float"] / row["kernel_ns_per_float"]
        row["render_json_s"] = best_time(render_json, payload, args.repeat)
        row["peak_traced_mb"] = peak_traced_mb(render_json, payload)
        table.append(row)
        print(
            f"{n:>6}{floats:>10}{row['output_mb']:>9.2f}"
            + "".join(f"{row[name + '_ns_per_float']:>20.1f}" for name in formatters)
            + f"{row['speedup']:>10.2f}{row['render_json_s']:>15.3f}{row['peak_traced_mb']:>9.2f}"
        )
    print(json.dumps(table))


if __name__ == "__main__":
    main()
