"""Which checks can fail: a mutation matrix on the golden chains, scored per command.

Each mutation corrupts one input of a chain (H, pi or P) or one line of one
builder. Every command then runs on a fresh chain of each golden graph, and
every check the command makes counts: the ones its builders raise through
``errors.require`` and the ones it returns. The raised ones are recorded, never
raised, so no check hides the checks behind it. A check *catches* a mutation
in a command when it fails there. A mutation counts only on a chain where it
changes something a command prints other than a residual: a fault in code that
only a check reads reaches no output, so catching it guards nothing.

Eighteen checks were candidates for deletion (``CANDIDATES``). One stays when, in
some command, it is the only check that catches a mutation that counts;
``KEPT`` names that command and mutation. The others are deleted from the
library. ``RETIRED`` evaluates each of them here, in the commands that made it,
so its row still shows that every mutation it catches is caught by another
check too.

Run directly to print the check x mutation table of each chain:

    PYTHONPATH=src python tests/test_mutation_matrix.py
"""

from __future__ import annotations

import __future__
import contextlib
import functools
import inspect
import re
import sys
import textwrap
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from greenwalk import cli, duality, errors, graph, greens, hitting, pipeline, spectral, tolerance
from greenwalk.errors import GreenWalkError, failed
from greenwalk.graph import Distribution, TransitionMatrix, load_graph
from greenwalk.hitting import HittingTimeMatrix
from greenwalk.pipeline import ChainAnalysis, analyze

GOLDEN = Path(__file__).parent / "golden"
CHAINS = {"directed": ("directed", 0.0), "undirected": ("undirected", 0.0), "undirected-lazy": ("undirected", 0.5)}
COMMANDS = [
    ["hitting"],
    *(["green", "--target", target] for target in ("pi", "uniform", "0")),
    *(["exitfreq", "--target", target] for target in ("pi", "uniform", "0")),
    ["mixing"],
    ["spectral"],
    ["dual"],
    ["verify"],
]
CANDIDATES = {
    "exit_negative", "exit_row_min", "greens_from_exit", "hitting_roundtrip", "trace_vs_hit",
    "dual_dual_image_row_min", "random_target", "greens_row_sum", "exit_row_sums", "greens_uniform_row_sum",
    "greens_vertex_row_sum", "greens_constraint", "exit_conservation", "greens_uniform_constraint",
    "greens_vertex_constraint", "cycle_triple", "greens_symmetry", "laplacian_symmetry",
}


# ---------------------------------------------------------------------------
# mutations


@dataclass(frozen=True)
class Mutation:
    """One fault: ``chain`` edits a freshly built chain; ``source`` edits one line of a builder.

    ``source`` is (module, qualified name, old text, new text), and the old
    text must occur exactly once in that function.
    """

    name: str
    chain: Callable[[ChainAnalysis], ChainAnalysis] = lambda chain: chain
    source: tuple[object, str, str, str] | None = None


def _hitting(edit):
    """The readers get edit(H, T) in place of the H whose first-step residual the solve confirmed."""

    def mutate(chain):
        H = chain.hitting
        chain.__dict__["hitting"] = HittingTimeMatrix(edit(H.values.copy(), H.time_scale), H.first_step)
        return chain

    return mutate


def _plus(H, index, amount):
    """H plus amount at index, off the diagonal."""
    D = np.zeros_like(H)
    D[index] = amount
    np.fill_diagonal(D, 0.0)
    return H + D


def _swap(H):
    H[0, [1, 2]] = H[0, [2, 1]]
    return H


def _pi_moved(chain):
    """1e-6 of pi moved from vertex 0 to vertex 1; the hitting times are solved with it."""
    p = chain.stationary.probs.copy()
    p[0] -= 1e-6
    p[1] += 1e-6
    return ChainAnalysis(chain.transition, Distribution(p))


def _p_moved(chain):
    """1e-6 of row 0 of P moved from its largest entry to its smallest; H stays the one solved for P."""
    P, H = chain.transition, chain.hitting
    probs = P.probs.copy()
    probs[0, probs[0].argmax()] -= 1e-6
    probs[0, probs[0].argmin()] += 1e-6
    moved = ChainAnalysis(TransitionMatrix(probs, P.beta, P.graph), chain.stationary)
    moved.__dict__["hitting"] = H
    return moved


_T = "self.hitting.time_scale"
MUTATIONS = [
    Mutation("H entry +1e-6T", _hitting(lambda H, T: _plus(H, np.s_[0, -1], 1e-6 * T))),
    Mutation("H column +1e-3T", _hitting(lambda H, T: _plus(H, np.s_[:, 1], 1e-3 * T))),
    Mutation("H row +1e-3T", _hitting(lambda H, T: _plus(H, np.s_[2], 1e-3 * T))),
    Mutation("H scaled 1+1e-6", _hitting(lambda H, T: H * (1.0 + 1e-6))),
    Mutation("H transposed", _hitting(lambda H, T: H.T.copy())),
    Mutation("H row swap", _hitting(lambda H, T: _swap(H))),
    Mutation("H noise 1e-6T", _hitting(lambda H, T: _plus(H, np.s_[:], 1e-6 * T * np.random.default_rng(0).standard_normal(H.shape)))),
    Mutation("pi moved 1e-6", _pi_moved),
    Mutation("P row moved 1e-6", _p_moved),
    Mutation("access +1e-3T", source=(greens, "Rules.access", ".max(axis=1)", f".max(axis=1) + 1e-3 * {_T}")),
    Mutation("access -1e-3T", source=(greens, "Rules.access", ".max(axis=1)", f".max(axis=1) - 1e-3 * {_T}")),
    Mutation("from_target H(., tau)", source=(greens, "Rules.from_target", "self.target.probs @ self.hitting.values", "self.hitting.values @ self.target.probs")),
    Mutation("greens pi on rows", source=(greens, "greens_general", "values *= rules.stationary.probs", "values *= rules.stationary.probs[:, None]")),
    Mutation("exit clip at 1e-3", source=(greens, "exit_frequency_matrix", "np.maximum(values, 0.0,", "np.maximum(values, 1e-3 * rules.entry_scale,")),
    Mutation("hitting_from_greens transposed", source=(greens, "hitting_from_greens", "HittingTimeMatrix(values)", "HittingTimeMatrix(values.T)")),
    Mutation("hit_time uniform weights", source=(hitting, "hit_time", "H.values @ pi.probs", "H.values @ np.full(H.n, 1.0 / H.n)")),
    Mutation("reversed H untransposed", source=(hitting, "reversed_hitting_times", "rules.hitting.values.T + h_pi", "rules.hitting.values + h_pi")),
    Mutation("conjugation inverted", source=(duality, "_conjugated", "p[None, :] / p[rows, None]", "p[rows, None] / p[None, :]")),
    Mutation("core offsets row minima", source=(duality, "pi_core", "b = X.values.min(axis=0)", "b = X.values.min(axis=1)")),
    Mutation("lazy blend into column 0", source=(graph, "transition_matrix", "probs.flat[:: g.n + 1] += beta", "probs[:, 0] += beta")),
]


def _modules():
    return [m for name, m in sorted(sys.modules.items()) if name == "greenwalk" or name.startswith("greenwalk.")]


def _bindings(mutation: Mutation):
    """(owner, attribute, mutant) for every place the mutated builder is bound."""
    if mutation.source is None:
        return []
    module, qualname, old, new = mutation.source
    *path, name = qualname.split(".")
    owner = functools.reduce(getattr, path, module)
    attr = vars(owner)[name]
    func = attr.func if isinstance(attr, cached_property) else attr
    source = textwrap.dedent(inspect.getsource(func))
    assert source.count(old) == 1, f"{qualname} must contain {old!r} once"
    lines = source.replace(old, new).splitlines()
    source = "\n".join(lines[next(i for i, line in enumerate(lines) if not line.startswith("@")) :])
    code = compile(source, inspect.getsourcefile(func), "exec", flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace = {}
    exec(code, vars(module), namespace)  # the mutant reads the module's globals, as the original does
    mutant = namespace[func.__name__]
    if isinstance(attr, cached_property):
        prop = cached_property(mutant)
        prop.__set_name__(owner, name)
        return [(owner, name, prop)]
    return [(m, name, mutant) for m in _modules() if vars(m).get(name) is func]


@contextlib.contextmanager
def _patched(bindings):
    saved = [(owner, name, vars(owner)[name]) for owner, name, _ in bindings]
    try:
        for owner, name, value in bindings:
            setattr(owner, name, value)
        yield
    finally:
        for owner, name, value in reversed(saved):
            setattr(owner, name, value)


# ---------------------------------------------------------------------------
# the verdict, and the deleted candidates evaluated where they were made

# candidate -> (chain, mutation, command) where it alone catches a mutation that counts
KEPT = {
    "exit_row_min": ("directed", "access +1e-3T", "exitfreq --target pi"),
    "exit_row_sums": ("undirected", "H transposed", "exitfreq --target pi"),
    "exit_conservation": ("directed", "H scaled 1+1e-6", "exitfreq --target pi"),
    "greens_constraint": ("directed", "H scaled 1+1e-6", "green --target pi"),
    "greens_row_sum": ("undirected", "H transposed", "green --target pi"),
    "trace_vs_hit": ("directed", "hit_time uniform weights", "mixing"),
}


def _exit_negative(rules, X):
    """The most negative entry of X_tau before it was clipped at zero."""
    values = rules.access[:, None] + rules.from_target[None, :]
    values -= rules.hitting.values
    values *= rules.stationary.probs
    return [("exit_negative", -values.min(), tolerance.bound(X.n, rules.entry_scale, tolerance.RESIDUAL))]


def _dual_image_row_min(chain, rep):
    """The largest row minimum of the dual image, X_pi less its column minima, conjugated."""
    image = duality._conjugated(rep.core_exit.values, chain.stationary.probs)
    limit = tolerance.bound(chain.transition.n, chain.entry_scale, tolerance.ROUTE)
    return [("dual_dual_image_row_min", image.min(axis=1).max(), limit)]


def _laplacian_symmetry(g, L):
    """The asymmetry of the normalized Laplacian, which the mirrored arcs of an undirected graph make exactly 0."""
    return [("laplacian_symmetry", tolerance.gap(L, L.T), tolerance.bound(g.n, 1.0, tolerance.RESIDUAL))]


def _verify_restatements(chain, _checks):
    """Verify's checks of what G, X_pi and H(., pi) restate of one another, and of G toward two more targets;
    on an undirected chain, also the two restatements of cycle_pair: its triple form and pi-weighted G symmetry."""
    H, G, X, pi = chain.hitting, chain.greens, chain.exit_pi, chain.stationary
    times = tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL)
    entries = tolerance.bound(H.n, chain.entry_scale, tolerance.RESIDUAL)
    restated = [
        ("random_target", chain.hit_time[1], times),
        ("hitting_roundtrip", tolerance.gap(greens.hitting_from_greens(G, pi).values, H.values), times),
        ("greens_from_exit", tolerance.gap(X.values - np.outer(X.access, pi.probs), G.values), entries),
    ]
    for tag, tau in (("uniform", Distribution.uniform(H.n)), ("vertex", Distribution.point_mass(H.n, 0))):
        restated += greens.green_checks(chain, greens.greens_general(greens.Rules(H, pi, tau)), f"greens_{tag}")
    if chain.graph.undirected:
        # triple(i, j, k) = pair(i, j) + pair(j, k) + pair(k, i), and pi_i G(i, j) - pi_j G(j, i) = -pi_i pi_j pair(i, j)
        D = H.values - H.values.T
        weighted = pi.probs[:, None] * G.values
        restated += [
            ("cycle_triple", float(np.abs(D[:, :, None] + D[None, :, :] - D[:, None, :]).max()),
             tolerance.bound(H.n, H.time_scale, tolerance.ROUTE)),
            ("greens_symmetry", tolerance.gap(weighted, weighted.T), entries),
        ]
    return restated


# (module, function, probe): probe(*arguments, result) gives the retired checks the function made
RETIRED = [
    (greens, "exit_frequency_matrix", _exit_negative),
    (spectral, "normalized_laplacian", _laplacian_symmetry),
    (duality, "duality_checks", _dual_image_row_min),
    (pipeline, "verify_checks", _verify_restatements),
]
RETIRED_NAMES = CANDIDATES - set(KEPT)


def _retired(recorder):
    """Bindings that make each function of RETIRED also record the checks its probe gives."""
    bindings = []
    for module, name, probe in RETIRED:
        func = vars(module)[name]

        def probing(*args, func=func, probe=probe):
            result = func(*args)
            for check in probe(*args, result):
                recorder(*check)
            return result

        bindings += [(m, name, probing) for m in _modules() if vars(m).get(name) is func]
    return bindings


# ---------------------------------------------------------------------------
# the matrix


class _Recorder:
    """Stands in for ``errors.require``: records each check, and raises none."""

    def __init__(self):
        self.checks = []

    def __call__(self, name, residual, limit, *error):
        self.checks.append((name, float(residual), float(limit)))


@dataclass(frozen=True)
class Matrix:
    fired: dict  # (chain, mutation, command) -> the names of the checks that fail
    live: set  # (chain, mutation) where some command prints something else

    def sole(self, check: str) -> list[tuple[str, str, str]]:
        """Every (chain, mutation, command) where ``check`` alone catches a mutation that counts."""
        return sorted(key for key, names in self.fired.items() if names == {check} and key[:2] in self.live)


NONE = Mutation("none")


def _commands(chain: str):
    return [argv for argv in COMMANDS if argv[0] != "spectral" or chain.startswith("undirected")]


def _run(recorder: _Recorder, chain_name: str, argv: list[str], mutation: Mutation) -> tuple[str, list]:
    """What the command prints, its residuals aside, and every check it makes.

    A failure that is no check (a chain the mutation made invalid) counts as
    a failed check named after its exception.
    """
    name, beta = CHAINS[chain_name]
    recorder.checks.clear()
    try:
        chain = mutation.chain(analyze(load_graph(str(GOLDEN / f"{name}.edges")), beta))
        args = cli._build_parser().parse_args([argv[0], "--input", name, *argv[1:]])
        output, checks = args.run(args, chain)
        pieces: list[str] = []
        cli.write_json(pieces.append, {key: value for key, value in output.items() if key != "residuals"})
        printed = "".join(pieces)
    except GreenWalkError as exc:
        checks, printed = [(type(exc).__name__, np.inf, 0.0)], repr(exc)
    return printed, recorder.checks + checks


def _failing(checks) -> frozenset[str]:
    return frozenset(re.sub(r"_\d+$", "", check[0]) for check in checks if failed(check))


@contextlib.contextmanager
def _recording():
    recorder = _Recorder()
    with _patched([(m, "require", recorder) for m in _modules() if vars(m).get("require") is errors.require]):
        yield recorder


@functools.cache
def matrix() -> Matrix:
    fired, live, base = {}, set(), {}
    with _recording() as recorder:
        for mutation in [NONE, *MUTATIONS]:
            with _patched(_bindings(mutation)), _patched(_retired(recorder)):
                for c in CHAINS:
                    for argv in _commands(c):
                        command = " ".join(argv)
                        printed, checks = _run(recorder, c, argv, mutation)
                        fired[c, mutation.name, command] = _failing(checks)
                        base.setdefault((c, command), printed)
                        if argv[0] != "verify" and printed != base[c, command]:
                            live.add((c, mutation.name))
    return Matrix(fired, live)


def table(m: Matrix, chain: str) -> str:
    """Checks against mutations on one chain: in how many commands a check fails, '!' where it alone catches one."""
    names = sorted(CANDIDATES | {name for (c, _, _), fired in m.fired.items() if c == chain for name in fired})
    tags = {name: " (kept)" if name in KEPT else " (retired)" for name in CANDIDATES}
    width = max(len(name + tags.get(name, "")) for name in names) + 2
    lines = [f"{chain}: the commands each check fails in, under each mutation"]
    lines += [f"  {k:2d}  {mutation.name}" + ("" if (chain, mutation.name) in m.live else "  (changes no printed value)")
              for k, mutation in enumerate(MUTATIONS)]
    lines.append(" " * width + "".join(f"{k:>4d}" for k in range(len(MUTATIONS))))
    for name in names:
        cells = []
        for mutation in MUTATIONS:
            keys = [key for key in m.fired if key[:2] == (chain, mutation.name)]
            count = sum(name in m.fired[key] for key in keys)
            sole = (chain, mutation.name) in m.live and any(m.fired[key] == {name} for key in keys)
            cells.append(f"{count or '.'}{'!' if sole else ''}")
        lines.append(f"{name + tags.get(name, ''):{width}s}" + "".join(f"{cell:>4s}" for cell in cells))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# tests


def test_unmutated_chains_pass_every_check():
    m = matrix()
    assert {key: names for key, names in m.fired.items() if key[1] == NONE.name and names} == {}


def test_library_makes_the_kept_candidates_and_no_retired_one():
    with _recording() as recorder:
        made = {check[0] for c in CHAINS for argv in _commands(c) for check in _run(recorder, c, argv, NONE)[1]}
        with _patched(_retired(recorder)):
            probed = {check[0] for c in CHAINS for argv in _commands(c) for check in _run(recorder, c, argv, NONE)[1]}
    assert set(KEPT) <= CANDIDATES and set(KEPT) <= made and not made & RETIRED_NAMES
    assert probed - made == RETIRED_NAMES  # the probes make exactly the retired candidates


@pytest.mark.parametrize("check", sorted(KEPT))
def test_kept_candidate_alone_catches_its_mutation(check):
    m = matrix()
    chain, mutation, command = KEPT[check]
    assert (chain, mutation) in m.live
    assert m.fired[chain, mutation, command] == {check}


@pytest.mark.parametrize("check", sorted(RETIRED_NAMES))
def test_retired_candidate_never_alone_catches_a_mutation(check):
    assert matrix().sole(check) == []


def test_only_check_code_mutations_reach_no_output():
    """hitting_from_greens feeds only spectral_hitting's residual (hitting_roundtrip, retired, read it too), and
    _conjugated feeds only the dual checks; the lazy blend reaches output on the lazy chain alone."""
    m = matrix()
    moot = {(c, mutation.name) for c in CHAINS for mutation in MUTATIONS} - m.live
    only_checks = {"hitting_from_greens transposed", "conjugation inverted"}
    assert moot == {(c, name) for c in CHAINS for name in only_checks} | {
        (c, "lazy blend into column 0") for c in CHAINS if CHAINS[c][1] == 0.0
    }


if __name__ == "__main__":
    m = matrix()
    for c in CHAINS:
        print(table(m, c), end="\n\n")
    for check in sorted(CANDIDATES):
        if check in KEPT:
            chain, mutation, command = KEPT[check]
            print(f"{check:26s} kept: the only check of {command!r} that catches {mutation!r} on the {chain} chain")
        else:
            print(f"{check:26s} retired: never the only check that catches a mutation")
