"""Per-layer spans around greenwalk's public functions, installed from outside the package.

``cli``, ``pipeline``, ``duality`` and ``families`` bind functions by name at
import (``from .hitting import hitting_times``), so wrapping a function in
its own module is not enough: every module attribute, and every dict in a
module namespace, that holds the original is rebound to the wrapper, and
``install`` returns any reference it could not rebind.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter, defaultdict
from functools import wraps
from time import perf_counter

# greenwalk module -> public functions that get a span
WRAPPED = {
    "graph": ("parse_graph", "transition_matrix", "stationary_distribution"),
    "hitting": ("fundamental_matrix", "hitting_times"),
    "greens": ("greens_general", "exit_frequency_matrix", "mixing_report", "verify_green_constraints"),
    "duality": ("duality_checks", "pi_core", "reverse_chain"),
    "spectral": (
        "decompose",
        "spectral_hitting",
        "spectral_greens",
        "spectral_mixing",
        "spectral_access_from_stationary",
    ),
    "pipeline": ("analyze",),
    "families": (
        "complete_oracle",
        "bipartite_oracle",
        "path_oracle",
        "cycle_oracle",
        "hypercube_oracle",
        "toric_oracle",
        "tree_oracle",
    ),
    "montecarlo": ("empirical_hitting", "empirical_random_target"),
    "cli": ("render_json", "render_csv"),
}
SPECTRAL_ROUTES = ("spectral_hitting", "spectral_greens", "spectral_mixing", "spectral_access_from_stationary")
COMMANDS = ("hitting", "green", "exitfreq", "mixing", "spectral", "dual", "family", "simulate", "verify")

# fundamental-matrix solves per command, read from the code: analyze() does one;
# verify adds the beta = 0.5 re-analysis and duality_checks' four
# (forward, reverse, and pi_core's forward and reverse); dual adds the same four.
EXPECTED_FUNDAMENTAL = {cmd: 1 for cmd in COMMANDS} | {"verify": 6, "dual": 5}

S, COUNT = "s", "count"
# (name, unit, better) of every per-layer metric, in report order
PER_LAYER = [
    ("graph.parse_s", S, "lower"),
    ("graph.transition_s", S, "lower"),
    ("graph.stationary_s", S, "lower"),
    ("graph.stationary_calls", COUNT, "lower"),
    ("hitting.fundamental_s", S, "lower"),
    ("hitting.fundamental_calls", COUNT, "lower"),
    ("hitting.hitting_times_self_s", S, "lower"),
    ("hitting.hitting_times_calls", COUNT, "lower"),
    ("greens.greens_general_s", S, "lower"),
    ("greens.exit_frequency_s", S, "lower"),
    ("greens.mixing_report_s", S, "lower"),
    ("greens.constraints_s", S, "lower"),
    ("greens.constraints_calls", COUNT, "lower"),
    ("duality.checks_self_s", S, "lower"),
    ("duality.pi_core_self_s", S, "lower"),
    ("duality.reverse_chain_calls", COUNT, "lower"),
    ("spectral.decompose_s", S, "lower"),
    ("spectral.decompose_calls", COUNT, "lower"),
    ("spectral.routes_s", S, "lower"),
    ("pipeline.analyze_calls", COUNT, "lower"),
    ("families.oracle_s", S, "lower"),
    ("montecarlo.walk_s", S, "lower"),
    ("montecarlo.steps", COUNT, "higher"),
    ("montecarlo.steps_per_s", "1/s", "higher"),
    ("cli.render_s", S, "lower"),
    ("cli.render_mb", "MB", "lower"),
    ("cli.render_mb_per_s", "MB/s", "higher"),
    ("cli.self_s", S, "lower"),
    *[(f"cli.{cmd}_s", S, "lower") for cmd in COMMANDS],
    ("setup.import_s", S, "lower"),
    ("setup.generate_s", S, "lower"),
    ("trace.wall_s", S, "lower"),
]


class Tracer:
    """Inclusive time, self time and call counts per span name, reset per pass."""

    def __init__(self):
        self._frames: list[list[float]] = []  # child time of each open span
        self._open: set[str] = set()
        self.reset()

    def reset(self) -> None:
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.render_bytes = 0
        self.steps = 0

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn inside a span; a span re-entered by recursion (render_json) is not split."""
        if name in self._open:
            return fn(*args, **kwargs)
        self._open.add(name)
        frame = [0.0]
        self._frames.append(frame)
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = perf_counter() - start
            self._frames.pop()
            self._open.discard(name)
            if self._frames:
                self._frames[-1][0] += elapsed
            self.total[name] += elapsed
            self.self_time[name] += elapsed - frame[0]
            self.calls[name] += 1

    def _wrap(self, name: str, fn):
        if name.startswith("cli.render"):
            @wraps(fn)
            def traced(*args, **kwargs):
                outer = name not in self._open
                text = self.call(name, fn, *args, **kwargs)
                if outer:
                    self.render_bytes += len(text)
                return text
        elif name.startswith("montecarlo."):
            @wraps(fn)
            def traced(*args, **kwargs):
                stats = self.call(name, fn, *args, **kwargs)
                self.steps += round(stats.trials * stats.mean)
                return stats
        else:
            @wraps(fn)
            def traced(*args, **kwargs):
                return self.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> tuple[list[str], list[str]]:
        """Wrap every function in WRAPPED wherever greenwalk holds it.

        Returns (absent, stale): functions that no longer exist, whose
        metrics then read 0, and module attributes still bound to an
        unwrapped original, which would make the figures wrong.
        """
        wrappers = {}
        absent = []
        for mod, names in WRAPPED.items():
            module = importlib.import_module(f"greenwalk.{mod}")
            for fname in names:
                fn = getattr(module, fname, None)
                if fn is None:
                    absent.append(f"greenwalk.{mod}.{fname}")
                else:
                    wrappers[id(fn)] = (fn, self._wrap(f"{mod}.{fname}", fn))

        def swap(container: dict) -> None:
            for key, value in list(container.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    container[key] = hit[1]

        for module in _greenwalk_modules():
            namespace = vars(module)
            swap(namespace)
            for key, value in list(namespace.items()):
                if isinstance(value, dict) and not key.startswith("__"):
                    swap(value)
        originals = {id(fn): fn for fn, _ in wrappers.values()}
        stale = [
            f"{module.__name__}.{key}"
            for module in _greenwalk_modules()
            for key, value in vars(module).items()
            if originals.get(id(value)) is value
        ]
        return absent, stale

    def metrics(self) -> dict[str, float]:
        """This pass's per-layer figures (the setup and trace.wall_s entries are filled by the caller)."""
        t, own, calls = self.total, self.self_time, self.calls
        render_s = t["cli.render_json"] + t["cli.render_csv"]
        walk_s = t["montecarlo.empirical_hitting"] + t["montecarlo.empirical_random_target"]
        render_mb = self.render_bytes / 1e6
        out = {
            "graph.parse_s": t["graph.parse_graph"],
            "graph.transition_s": t["graph.transition_matrix"],
            "graph.stationary_s": t["graph.stationary_distribution"],
            "graph.stationary_calls": calls["graph.stationary_distribution"],
            "hitting.fundamental_s": t["hitting.fundamental_matrix"],
            "hitting.fundamental_calls": calls["hitting.fundamental_matrix"],
            "hitting.hitting_times_self_s": own["hitting.hitting_times"],
            "hitting.hitting_times_calls": calls["hitting.hitting_times"],
            "greens.greens_general_s": t["greens.greens_general"],
            "greens.exit_frequency_s": t["greens.exit_frequency_matrix"],
            "greens.mixing_report_s": t["greens.mixing_report"],
            "greens.constraints_s": t["greens.verify_green_constraints"],
            "greens.constraints_calls": calls["greens.verify_green_constraints"],
            "duality.checks_self_s": own["duality.duality_checks"],
            "duality.pi_core_self_s": own["duality.pi_core"],
            "duality.reverse_chain_calls": calls["duality.reverse_chain"],
            "spectral.decompose_s": t["spectral.decompose"],
            "spectral.decompose_calls": calls["spectral.decompose"],
            "spectral.routes_s": sum(t[f"spectral.{f}"] for f in SPECTRAL_ROUTES),
            "pipeline.analyze_calls": calls["pipeline.analyze"],
            "families.oracle_s": sum(t[f"families.{f}"] for f in WRAPPED["families"]),
            "montecarlo.walk_s": walk_s,
            "montecarlo.steps": self.steps,
            "montecarlo.steps_per_s": self.steps / walk_s if walk_s > 0 else 0.0,
            "cli.render_s": render_s,
            "cli.render_mb": render_mb,
            "cli.render_mb_per_s": render_mb / render_s if render_s > 0 else 0.0,
            "cli.self_s": sum(own[f"cli.{cmd}"] for cmd in COMMANDS),
        }
        for cmd in COMMANDS:
            out[f"cli.{cmd}_s"] = t[f"cli.{cmd}"]
        return out


def _greenwalk_modules():
    return [m for name, m in list(sys.modules.items()) if name == "greenwalk" or name.startswith("greenwalk.")]
