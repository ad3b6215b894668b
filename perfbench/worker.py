"""One workload process: import greenwalk, build the inputs, time passes, check outputs.

run.py starts this file in a fresh interpreter and reads the JSON object
it prints as its last line. With ``--role setup`` it stops once the inputs
are built, so run.py can take the median of several set-ups.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import resource
import sys
import time
import traceback
from pathlib import Path

import greenwalk.cli as cli  # the import every command-line call pays
import numpy as np

IMPORTED = time.monotonic()

import tracing  # noqa: E402
import workloads  # noqa: E402


# A fixed piece of work in no greenwalk code: float repr into JSON, a small
# LAPACK solve and a pure-Python loop, the kinds of work the commands do,
# about 11 ms on a quiet host. It runs before the first pass and after
# every pass; run.py divides each pass by the calibrations around it, which
# takes out the host's slow phases (README, "Steadiness").
_CAL = np.random.default_rng(0).random((110, 110))


def calibrate() -> float:
    """Seconds for one run of the calibration work."""
    t0 = time.perf_counter()
    json.dumps(_CAL.tolist())
    np.linalg.solve(_CAL + 110.0 * np.eye(110), np.ones(110))
    acc = 0
    for i in range(70_000):
        acc += i & 7
    return time.perf_counter() - t0


def run_op(argv: list[str], tracer) -> dict:
    """One in-process cli.main call with stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        cpu0, t0 = time.process_time(), time.perf_counter()
        try:
            if tracer is None:
                rc = cli.main(argv)
            else:
                rc = tracer.call(f"cli.{argv[0]}", cli.main, argv)
        except Exception:  # a crash is a failed operation, not the end of the run
            rc = -1
            err.write(traceback.format_exc())
        seconds, cpu = time.perf_counter() - t0, time.process_time() - cpu0
    finally:
        sys.stdout, sys.stderr = saved
    return {"rc": rc, "seconds": seconds, "cpu": cpu, "stdout": out.getvalue(), "stderr": err.getvalue()}


def run_pass(wl: workloads.Workload, tracer, save_to: Path | None = None) -> dict:
    """Every operation of the workload once; wall and CPU time are summed over the calls.

    Only a digest of each stdout is kept, so captured output does not add to
    the peak memory; ``save_to`` writes the full text for the checks.
    """
    ops, per_command = [], []
    for key, argv in wl.ops:
        if tracer:
            before = tracer.calls["hitting.fundamental_matrix"], tracer.self_time[f"cli.{argv[0]}"]
        result = run_op(argv, tracer)
        text = result.pop("stdout")
        if save_to is not None:
            (save_to / f"stdout-{key}.txt").write_text(text, encoding="utf-8")
        result.update(key=key, digest=hashlib.sha256(text.encode()).hexdigest())
        del text
        ops.append(result)
        if tracer:
            per_command.append({
                "key": key,
                "command": argv[0],
                "fundamental_calls": tracer.calls["hitting.fundamental_matrix"] - before[0],
                "self_s": tracer.self_time[f"cli.{argv[0]}"] - before[1],
            })
    return {
        "ops": ops,
        "wall": sum(op["seconds"] for op in ops),
        "per_command": per_command,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--role", choices=("setup", "run"), required=True)
    ap.add_argument("--work-dir", required=True)
    args = ap.parse_args()

    work = Path(args.work_dir)
    work.mkdir(parents=True, exist_ok=True)
    wl = workloads.BUILDERS[args.workload](args.seed, work)
    report: dict = {"stamps": {"imported": IMPORTED, "ready": time.monotonic()}}
    if args.role == "setup":
        print(json.dumps(report))
        return 0

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        report["absent"], report["stale"] = tracer.install()

    # Whole passes, at least two, while the next one would end no more than
    # half a pass after --seconds. The first pass pays the page faults of the
    # heap's high-water mark, and run.py leaves it out. Its outputs are the
    # reference for the checks and byte identity.
    passes, cals = [], [calibrate()]
    start = time.monotonic()
    while len(passes) < 2 or time.monotonic() - start + passes[-1]["wall"] / 2 <= args.seconds:
        if tracer:
            tracer.reset()
        done = run_pass(wl, tracer, save_to=None if passes else work)
        if tracer:
            done["layers"] = tracer.metrics()
        passes.append(done)
        cals.append(calibrate())
    reference = {op["key"]: op["digest"] for op in passes[0]["ops"]}
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    outputs = {key: (work / f"stdout-{key}.txt").read_text(encoding="utf-8") for key, _ in wl.ops}
    ledger = wl.check(outputs)
    problems = {key: set(msgs) for key, msgs in ledger.failures.items()}
    failed = 0
    for done in passes:
        for op in done["ops"]:
            bad = set()
            if op["rc"] != 0:
                bad.add(f"exit {op['rc']}: {op['stderr'].strip()[-300:]}")
            if op["digest"] != reference[op["key"]]:
                bad.add("stdout differs from the first pass")
            if bad or op["key"] in problems:
                failed += 1
                problems.setdefault(op["key"], set()).update(bad)

    report.update(
        walls=[p["wall"] for p in passes],
        cals=cals,
        op_seconds={key: [p["ops"][k]["seconds"] for p in passes] for k, (key, _) in enumerate(wl.ops)},
        op_cpu={key: [p["ops"][k]["cpu"] for p in passes] for k, (key, _) in enumerate(wl.ops)},
        attempted=len(passes) * len(wl.ops),
        failed=failed,
        problems={key: sorted(msgs) for key, msgs in problems.items()},
        margins=ledger.worst(),
        inputs=wl.inputs,
    )
    if tracer:
        report["layers"] = [p["layers"] for p in passes]
        report["per_command"] = passes[0]["per_command"]
        report["negative_self"] = [
            c["key"] for p in passes for c in p["per_command"] if c["self_s"] < 0
        ]
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
