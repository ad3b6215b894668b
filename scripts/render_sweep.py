#!/usr/bin/env python3
"""Time render_json of a hitting-time payload with the per-row '%' join and with the float kernel.

For each n, builds the payload `greenwalk hitting` prints for
random_strongly_connected_digraph(n, 1, extra=0.02), renders it with a
verbatim copy of the renderer that formatted each float row with one
"%.17g" '%', and with greenwalk.cli.render_json, asserts that both texts
are equal, and prints the time per float (best of --repeat) and the peak
memory tracemalloc sees while rendering. The last line is the table as JSON.

Usage: python3 scripts/render_sweep.py [--sizes N ...] [--repeat R]
"""

import argparse
import json
import time
import tracemalloc

import numpy as np

from greenwalk.cli import render_json
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.hitting import hit_time
from greenwalk.pipeline import analyze

# ---------------------------------------------------------------------------
# the renderer the float kernel replaced, kept verbatim


def _fmt(x) -> str:
    # adding 0.0 normalizes negative zero
    return format(float(x) + 0.0, ".17g")


def _float_row(row, sep: str) -> str:
    """A flat float row in one '%' formatting, negative zero normalized as in _fmt."""
    values = (np.asarray(row, dtype=float) + 0.0).tolist()
    return sep.join(["%.17g"] * len(values)) % tuple(values)


def _is_float_row(obj) -> bool:
    if isinstance(obj, np.ndarray):
        return obj.ndim == 1 and obj.dtype.kind == "f"
    return all(type(v) is float for v in obj)


def _scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _fmt(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def row_join_render_json(obj, indent: int = 0) -> str:
    """Fixed-format JSON: 17 significant digits, insertion-ordered keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {row_join_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if _is_float_row(obj):
            return "[" + _float_row(obj, ", ") + "]"
        seq = list(obj)
        if not seq:
            return "[]"
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            items = [f"{pad}  {row_join_render_json(v, indent + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_scalar(v) for v in seq) + "]"
    return _scalar(obj)


# ---------------------------------------------------------------------------


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

    renderers = {"row_join": row_join_render_json, "kernel": render_json}
    header = f"{'n':>6}{'floats':>10}{'MB out':>9}" + "".join(
        f"{name + ' ns/float':>20}{name + ' peak MB':>18}" for name in renderers
    ) + f"{'speed-up':>10}"
    print(header)
    print("-" * len(header))
    table = []
    for n in args.sizes:
        payload = hitting_payload(n)
        texts = {name: render(payload) for name, render in renderers.items()}
        assert texts["kernel"] == texts["row_join"], f"n = {n}: the renderers disagree"
        floats = n * n + n + 2
        row = {"n": n, "floats": floats, "output_mb": len(texts["kernel"]) / 2**20}
        del texts
        for name, render in renderers.items():
            row[f"{name}_ns_per_float"] = best_time(render, payload, args.repeat) / floats * 1e9
            row[f"{name}_peak_traced_mb"] = peak_traced_mb(render, payload)
        row["speedup"] = row["row_join_ns_per_float"] / row["kernel_ns_per_float"]
        table.append(row)
        print(
            f"{n:>6}{floats:>10}{row['output_mb']:>9.2f}"
            + "".join(f"{row[name + '_ns_per_float']:>20.1f}{row[name + '_peak_traced_mb']:>18.2f}" for name in renderers)
            + f"{row['speedup']:>10.2f}"
        )
    print(json.dumps(table))


if __name__ == "__main__":
    main()
