"""Self-test of the benchmark's own checkers and tracing, on small inputs.

    PYTHONPATH=src python3 perfbench/selftest.py

1. Each workload, shrunk, runs through greenwalk's CLI; its genuine outputs
   must pass every check.
2. Each checker is fed a deliberately corrupted output and must flag the
   corrupted operation as failed.
3. The tracer is installed and every command runs once: no greenwalk module
   may keep an unwrapped reference, each command must make the
   fundamental-matrix solves read from the code, and no command may show a
   negative self time.
4. BENCHMARK.json names exactly the metrics that run.py and tracing.py report.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

SCALE = 0.05  # 40-vertex matrices, a 150 000-step walk budget


def _json_edit(text: str, edit) -> str:
    data = json.loads(text)
    edit(data)
    return json.dumps(data)


def _perturb_entry(data):
    H = np.array(data["rows"])
    H[1, 2] += 1e-6 * np.abs(H).max()
    data["rows"] = H.tolist()


def _shift_row(data):
    G = np.array(data["rows"])
    G[3] += 1e-6 * np.abs(G).max()
    data["rows"] = G.tolist()


def _negative_entry(data):
    X = np.array(data["rows"])
    X[2, 5] = -1e-6 * np.abs(X).max()
    data["rows"] = X.tolist()


def _wrong_eigenvalue(data):
    data["eigenvalues"][3] += 1e-6


def _moved_mean(data):
    data["mean"] += 10.0 * data["stderr"]


# (workload, operation, what is corrupted, edit of its JSON output)
CORRUPTIONS = [
    ("matrix-export", "hitting-directed", "one perturbed H entry", _perturb_entry),
    ("matrix-export", "green-directed-pi", "one G row shifted off zero sum", _shift_row),
    ("matrix-export", "exitfreq-directed", "a negative X entry", _negative_entry),
    ("invariant-audit", "spectral-undirected", "a wrong eigenvalue", _wrong_eigenvalue),
    ("walk-sim", "simulate-hitting-0", "a simulated mean moved by 10 stderr", _moved_mean),
]


def main() -> int:
    errors = []
    (HERE / "_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "_work") as tmp:
        outputs, built = {}, {}
        for name, build in workloads.BUILDERS.items():
            work = Path(tmp) / name
            work.mkdir()
            wl = build(1, work, scale=SCALE)
            built[name] = wl
            outputs[name] = {}
            for key, argv in wl.ops:
                result = worker.run_op(argv, None)
                if result["rc"] != 0:
                    errors.append(f"{name}/{key}: exit {result['rc']}: {result['stderr'].strip()}")
                outputs[name][key] = result["stdout"]
            clean = wl.check(outputs[name]).failures
            if clean:
                errors.append(f"{name}: genuine outputs flagged: {clean}")
            print(f"clean {name}: {len(wl.ops)} operations pass", file=sys.stderr)

        for name, key, what, edit in CORRUPTIONS:
            corrupted = dict(outputs[name], **{key: _json_edit(outputs[name][key], edit)})
            flagged = built[name].check(corrupted).failures
            if key in flagged:
                print(f"corrupted {name}/{key} ({what}): flagged: {flagged[key][0]}", file=sys.stderr)
            else:
                errors.append(f"{name}/{key}: {what} was not flagged")

        tracer = tracing.Tracer()
        absent, stale = tracer.install()
        errors += [f"tracing: {a} does not exist" for a in absent]
        errors += [f"tracing: {s} still holds the unwrapped function" for s in stale]
        seen = set()
        for name, wl in built.items():
            for done in worker.run_pass(wl, tracer)["per_command"]:
                seen.add(done["command"])
                want = tracing.EXPECTED_FUNDAMENTAL[done["command"]]
                if done["fundamental_calls"] != want:
                    errors.append(f"tracing: {done['key']} made {done['fundamental_calls']} "
                                  f"fundamental-matrix solves, expected {want}")
                if done["self_s"] < 0:
                    errors.append(f"tracing: {done['key']} has negative cli self time")
        missing = set(tracing.COMMANDS) - seen
        print(f"traced commands: {sorted(seen)}; calls {dict(tracer.calls)}", file=sys.stderr)
        if missing:
            errors.append(f"tracing: commands never run: {sorted(missing)}")

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    import run  # noqa: E402  (imports only the standard library and tracing)

    if [m["name"] for m in spec["end_to_end"]] != [m for m, _ in run.END_TO_END]:
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    if [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] != tracing.PER_LAYER:
        errors.append("BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")

    for e in errors:
        print(f"FAIL {e}", file=sys.stderr)
    print("selftest: " + ("FAILED" if errors else "ok"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
