"""Benchmark for the greenwalk command line: one workload per run, or all of them.

    python3 perfbench/run.py --workload matrix-export --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 15 --trace 0

Run from the root of a checkout. Each workload runs in fresh interpreters
(perfbench/worker.py) that import greenwalk from ./src: SETUPS - 1 of them
stop once the inputs are built, and the last one also times passes for
``--seconds``. Every metric is printed to stderr by name and unit; the last
line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (end-to-end metrics with ``--trace 0``,
per-layer metrics with ``--trace 1``).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("matrix-export", "invariant-audit", "walk-sim")
SETUPS = 5            # fresh interpreters per run whose set-up time is measured
DEADLINE_S = 170.0    # a run must end well within 180 s
BLAS_THREADS = 1      # steadier on a shared 2-vCPU host; cpu_s then shows threads a change adds
CAL_REF_S = 0.011     # worker.calibrate() on the reference host in a quiet phase (README, "Steadiness")

sys.path.insert(0, str(HERE))
from tracing import EXPECTED_FUNDAMENTAL, PER_LAYER  # noqa: E402

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"), ("cpu_s", "s")]


class RunError(Exception):
    pass


def _child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"  # the same seed gives the same process, down to dict layouts
    return env


def per_pass(per_op: dict[str, list[float]]) -> list[float]:
    """Each pass's time: the sum over the workload's commands."""
    return [sum(times) for times in zip(*per_op.values())]


def at_reference_speed(times: list[float], cals: list[float]) -> float:
    """Median pass, each pass measured against the calibrations around it, in reference seconds.

    The host this benchmark was tuned on changes speed by up to 2x for tens
    of seconds at a time (README, "Steadiness"). A pass and the calibration
    on either side of it run in the same phase, so their ratio hardly moves
    with the phase; the median ratio times CAL_REF_S is the pass time on a
    quiet host. The first pass pays the page faults of the heap's
    high-water mark and is left out.
    """
    ratios = [t / ((cals[k] + cals[k + 1]) / 2) for k, t in enumerate(times)]
    return statistics.median(ratios[1:]) * CAL_REF_S


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict:
    """Set up SETUPS times, time passes in the last process, and return the result object."""
    work = HERE / "_work" / name
    started = time.monotonic()
    env = _child_env()
    setups, imports, generates, report = [], [], [], None
    for k in range(SETUPS):
        role = "run" if k == SETUPS - 1 else "setup"
        argv = [sys.executable, str(HERE / "worker.py"), "--workload", name, "--seed", str(seed),
                "--seconds", str(seconds), "--trace", str(trace), "--role", role, "--work-dir", str(work)]
        spawned = time.monotonic()
        try:
            proc = subprocess.run(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                                  timeout=max(1.0, DEADLINE_S - (spawned - started)))
        except subprocess.TimeoutExpired:
            raise RunError(f"{name}: worker ({role}) passed the {DEADLINE_S:.0f} s deadline") from None
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise RunError(f"{name}: worker ({role}) exited {proc.returncode}")
        report = json.loads(lines[-1])
        stamps = report["stamps"]
        setups.append(stamps["ready"] - spawned)
        imports.append(stamps["imported"] - spawned)
        generates.append(stamps["ready"] - stamps["imported"])

    notes = [f"{key}: {msg}" for key, msgs in report["problems"].items() for msg in msgs]
    correct = report["failed"] == 0
    if trace:
        layers = report["layers"]
        metrics = {}
        for metric, unit, _ in PER_LAYER:
            if metric == "setup.import_s":
                value = statistics.median(imports)
            elif metric == "setup.generate_s":
                value = statistics.median(generates)
            elif metric == "trace.wall_s":
                value = at_reference_speed(per_pass(report["op_seconds"]), report["cals"])
            elif unit == "count":
                values = {p[metric] for p in layers}
                if len(values) > 1:
                    notes.append(f"{metric} differs between passes: {sorted(values)}")
                    correct = False
                value = layers[0][metric]
            else:
                value = min(p[metric] for p in layers)
            metrics[metric] = {"value": value, "unit": unit}
        for c in report["per_command"]:
            want = EXPECTED_FUNDAMENTAL[c["command"]]
            print(f"  {c['key']}: {c['fundamental_calls']} fundamental-matrix solves "
                  f"(read from the code: {want})", file=sys.stderr)
            if c["fundamental_calls"] != want:
                notes.append(f"{c['key']} made {c['fundamental_calls']} fundamental-matrix solves, "
                             f"the code reading gives {want}; update EXPECTED_FUNDAMENTAL if the code changed")
        notes += [f"not traced, absent from greenwalk: {a}" for a in report["absent"]]
        for bad in report["stale"]:
            notes.append(f"tracing missed a reference: {bad} still holds the unwrapped function")
            correct = False
        for key in report["negative_self"]:
            notes.append(f"{key}: negative cli self time")
            correct = False
    else:
        metrics = {
            "wall_s": at_reference_speed(per_pass(report["op_seconds"]), report["cals"]),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": report["peak_rss_mb"],
            "cpu_s": at_reference_speed(per_pass(report["op_cpu"]), report["cals"]),
        }
        metrics = {m: {"value": metrics[m], "unit": unit} for m, unit in END_TO_END}

    print(f"[{name}] seed {seed}, BLAS threads {BLAS_THREADS}, timed passes (s): "
          f"{', '.join(f'{w:.3f}' for w in report['walls'])}; set-ups (s): {', '.join(f'{s:.3f}' for s in setups)}; "
          f"inputs {json.dumps(report['inputs'])}", file=sys.stderr)
    print(f"  as measured: median pass {statistics.median(per_pass(report['op_seconds'])[1:]):.6g} s wall, "
          f"{statistics.median(per_pass(report['op_cpu'])[1:]):.6g} s CPU; median calibration "
          f"{statistics.median(report['cals']):.6g} s (reference {CAL_REF_S} s)", file=sys.stderr)
    print("  per operation, median s: " + ", ".join(
        f"{key} {statistics.median(v):.3f}" for key, v in report["op_seconds"].items()), file=sys.stderr)
    for metric, m in metrics.items():
        print(f"  {metric} = {m['value']:.6g} {m['unit']}", file=sys.stderr)
    print(f"  attempted {report['attempted']}, failed {report['failed']}", file=sys.stderr)
    worst = sorted(report["margins"].items(), key=lambda kv: -kv[1])[:4]
    print("  closest checks (residual / limit): "
          + ", ".join(f"{k} {v:.2g}" for k, v in worst), file=sys.stderr)
    for note in notes:
        print(f"  NOTE {note}", file=sys.stderr)
    return {"correct": correct, "attempted": report["attempted"], "failed": report["failed"], "metrics": metrics}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (ROOT / "src" / "greenwalk" / "cli.py").is_file():
        print(f"error: no greenwalk sources under {ROOT / 'src'}; run from a checkout", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = {name: run_workload(name, args.seed, args.seconds, args.trace) for name in names}
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
        return 0
    for name, result in results.items():
        print(f"{name} {json.dumps(result)}")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{n}.{m}": v for n, r in results.items() for m, v in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
