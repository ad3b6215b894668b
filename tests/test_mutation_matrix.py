"""Which checks can fail: a mutation matrix on the golden chains, scored per command.

Each mutation corrupts one input of a chain (H, pi or P) or one line of one
builder. Every command then runs on a fresh chain of each golden graph, and
every check the command makes through ``errors.require`` counts. Each command
runs in an ``errors.recorded()`` ledger, where no check raises, so no check
hides the checks behind it; ``verify`` keeps a ledger of its own and prints
it. A check *catches* a mutation in a command when it fails there. A mutation
counts only on a chain where it changes something a command prints other than
a residual, and in a command only where it changes what that command prints: a
fault in code that only a check reads reaches no output, so catching it guards
nothing. ``verify`` prints checks alone; a mutation counts there on every chain
where it counts at all.

Every check name the commands make, or made before its deletion, is a
candidate (``CANDIDATES``). A candidate stays when, in some command, it is the
only check the library makes that catches a mutation that counts; ``KEPT``
names that chain, mutation and command. ``RULES`` keeps a few whatever their
rows say, and names why. ``DEFERRED`` holds the candidates the matrix would
delete but the library still makes. The others are deleted from the library.
``RETIRED`` evaluates each of them here, in the commands that made it, so its
row still shows that every mutation it catches is caught by a check the
library still makes.

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
from greenwalk.generators import wide_cycle_digraph, wide_holding_cycle
from greenwalk.graph import Distribution, TransitionMatrix, load_graph
from greenwalk.hitting import HittingTimeMatrix
from greenwalk.pipeline import ChainAnalysis, analyze

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden"
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
    # the builders' checks of one solve: Z, H, pi and P
    "fundamental", "first_step", "laziness_scaling", "stationary", "row_stochastic", "reverse_row_sum",
    # G, X and the mixing measures read off H
    "exit_negative", "exit_row_min", "exit_row_sums", "exit_conservation", "greens_row_sum", "greens_constraint",
    "greens_from_exit", "hitting_roundtrip", "random_target", "trace_vs_hit", "pessimal_formulas",
    "greens_uniform_row_sum", "greens_uniform_constraint", "greens_vertex_row_sum", "greens_vertex_constraint",
    "cycle_pair", "cycle_triple", "greens_symmetry",
    # the reverse chain, the forget distributions and the pi-core
    "core_routes", "core_negative_mass", "forget_negative_mass", "dual_reverse_involution", "dual_reverse_stationary",
    "dual_reset_equals_reverse_forget", "dual_forget_equals_reverse_reset", "dual_exit_conjugation",
    "dual_dual_image_conservation", "dual_dual_image_row_min", "dual_greens_forget_dual", "dual_greens_core_dual",
    "dual_core_decomposition",
    # the eigensystem and the spectral routes
    "laplacian_symmetry", "eigen_orthonormality", "eigen_reconstruction", "zero_mode_drift",
    "spectral_hitting", "spectral_greens", "spectral_access", "spectral_t_mix", "spectral_t_reset", "spectral_t_hit",
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


@dataclass(frozen=True)
class _Held(ChainAnalysis):
    """A chain whose hitting times are ``held``, not solved; a copy of it (``dataclasses.replace``) holds them too."""

    held: HittingTimeMatrix | None = None

    @cached_property
    def hitting(self) -> HittingTimeMatrix:
        return self.held


def _hitting(edit):
    """The readers get edit(H, T) in place of the H whose first-step residual the solve confirmed."""

    def mutate(chain):
        H = chain.hitting
        edited = HittingTimeMatrix(edit(H.values.copy(), H.time_scale))
        return _Held(chain.transition, chain.stationary, edited)

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
    return _Held(TransitionMatrix(probs, P.beta, P.graph), chain.stationary, H)


_T = "self.hitting.time_scale"
_SOLVED = "A, Z = _solve_fundamental(P, pi)"
_EIGH = "lam, phi = np.linalg.eigh(normalized_laplacian(g))"
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
    Mutation("core offsets row minima", source=(duality, "pi_core", "b = X.values.min(axis=0)", "b = X.values.min(axis=1)")),
    Mutation("lazy blend into column 0", source=(graph, "transition_matrix", "probs.flat[:: g.n + 1] += beta", "probs[:, 0] += beta")),
    Mutation("Z entry +1e-6 max|Z|", source=(hitting, "fundamental_matrix", _SOLVED, f"{_SOLVED}; Z[0, -1] += 1e-6 * np.abs(Z).max()")),
    Mutation("Z + 1c^T, c = -diag Z", source=(hitting, "fundamental_matrix", _SOLVED, f"{_SOLVED}; Z -= Z.diagonal().copy()")),
    Mutation("eigenvector entry +1e-6", source=(spectral, "decompose", _EIGH, f"{_EIGH}; phi[0, 1] += 1e-6")),
    Mutation("reverse drift kept", source=(duality, "reverse_chain", "probs /= sums[:, None]", "pass")),
    Mutation("forget weights forward", source=(duality, "forget_distribution", "rev = chain.reverse", "rev = chain")),
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
    "first_step": ("directed", "pi moved 1e-6", "hitting"),
    "pessimal_formulas": ("undirected", "H row swap", "mixing"),
    "core_routes": ("directed", "core offsets row minima", "dual"),
}

ONLY_ROUTE = "the only independent route to a value that spectral prints"
# the wide-weight shapes of ``scripts/sweep.py range``, at its n
SWEEP_SHAPES = {"cycle": wide_cycle_digraph, "holding": wide_holding_cycle}
SWEEP_N = 40
# candidate -> why it stays whatever its row says: a reason, or the wide-weight
# run of ``scripts/sweep.py range`` (shape, d, seed, --lazy, command) whose first FAIL it is
RULES = {
    **dict.fromkeys(
        ["spectral_hitting", "spectral_greens", "spectral_access", "spectral_t_mix", "spectral_t_reset", "spectral_t_hit"],
        ONLY_ROUTE,
    ),
    "fundamental": "the solve's own residual A Z - I, from which an error bound on H is to be read",
    "dual_reverse_involution": ("holding", 6, 1, "0", "dual"),
    "laziness_scaling": ("holding", 6, 0, "0", "verify"),
}

# Never the only catcher, so the matrix would delete them; each is a raised guard
# with its own exit-2 case in tests/test_cli.py, and they go in a change of their own.
DEFERRED = {"stationary", "reverse_row_sum", "forget_negative_mass", "core_negative_mass"}


def _exit_negative(rules, X):
    """The most negative entry of X_tau before it was clipped at zero."""
    values = rules.access[:, None] + rules.from_target[None, :]
    values -= rules.hitting.values
    values *= rules.stationary.probs
    return [("exit_negative", -values.min(), tolerance.bound(X.n, rules.entry_scale, tolerance.RESIDUAL))]


def _laplacian_symmetry(g, L):
    """The asymmetry of the normalized Laplacian, which the mirrored arcs of an undirected graph make exactly 0."""
    return [("laplacian_symmetry", tolerance.gap(L, L.T), tolerance.bound(g.n, 1.0, tolerance.RESIDUAL))]


def _eigen_residuals(g, dec):
    """decompose's checks of its basis: orthonormality, the reconstruction of L, and the zero mode against sqrt(deg)."""
    n, lam, phi = g.n, dec.eigenvalues, dec.eigenvectors
    root = np.sqrt(g.degrees)
    root /= np.linalg.norm(root)
    drift = min(tolerance.gap(phi[:, 0], root), tolerance.gap(phi[:, 0], -root))
    spread = lam[1] if n > 1 else 1.0  # an eigenvector's error grows as 1 / (distance to the next eigenvalue)
    probs = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    return [
        ("eigen_orthonormality", tolerance.gap(phi.T @ phi, np.eye(n)), tolerance.bound(n, 1.0, tolerance.ROUTE)),
        ("eigen_reconstruction", tolerance.gap((phi * lam[None, :]) @ phi.T, spectral.normalized_laplacian(g)), probs),
        ("zero_mode_drift", drift, tolerance.bound(n, 1.0 / spread, tolerance.RESIDUAL)),
    ]


def _conjugated(values, p):
    """values^T scaled by p_j / p_i."""
    return values.T * (p[None, :] / p[:, None])


def _dual_identities(chain, rep):
    """The reverse-chain identities dual returned besides the involution: the reverse chain's stationarity, the
    reset/forget exchange both ways, the exit conjugation and its image's conservation and row minima, both Green's
    function duals, and the core decomposition H(., pi) = H(., core) + H(core, pi)."""
    P, pi, rev, H = chain.transition, chain.stationary, chain.reverse, chain.hitting
    n, p = P.n, pi.probs
    probs = tolerance.bound(n, 1.0, tolerance.RESIDUAL)
    times = tolerance.bound(n, H.time_scale, tolerance.ROUTE)
    entries = tolerance.bound(n, chain.entry_scale, tolerance.ROUTE)
    mix = chain.pi_rules.access
    t_reset = float(p @ mix)
    X_rev_mu = greens.exit_frequency_matrix(rev.forget_rules)
    acc_rev_mu = X_rev_mu.access  # Hrev(i, mu_hat)
    image = _conjugated(rep.core_exit.values, p)
    core_rules = greens.Rules(H, pi, rep.core)
    core_shift = acc_rev_mu - float(p @ acc_rev_mu)
    forget_dual = _conjugated(chain.greens.values, p) + p * (mix - t_reset)
    core_dual = _conjugated(rev.greens.values, p) + p * core_shift
    core_mix = core_rules.access + float((core_rules.from_target - chain.pi_rules.from_target).max())
    return [
        ("dual_reverse_stationary", tolerance.gap(p @ rev.transition.probs, p), probs),
        ("dual_reset_equals_reverse_forget", abs(t_reset - float(acc_rev_mu.max())), times),
        ("dual_forget_equals_reverse_reset", abs(rep.t_forget - float(p @ rev.pi_rules.access)), times),
        ("dual_exit_conjugation", tolerance.gap(X_rev_mu.values, image), entries),
        ("dual_dual_image_conservation",
         greens.verify_green_constraints(greens.GreensMatrix(image, rep.reverse_forget), rev.transition), entries),
        ("dual_dual_image_row_min", image.min(axis=1).max(), entries),
        ("dual_greens_forget_dual", tolerance.gap(greens.greens_general(rev.forget_rules).values, forget_dual), entries),
        ("dual_greens_core_dual", tolerance.gap(greens.greens_general(core_rules).values, core_dual), entries),
        ("dual_core_decomposition", tolerance.gap(mix, core_mix), times),
    ]


def _verify_restatements(chain, *_):
    """Verify's checks of what G, X_pi and H(., pi) restate of one another, of G toward two more targets, and of P's
    row sums, which TransitionMatrix bounds as it is built; on an undirected chain, also reversibility: the pair
    identity H(pi, i) + H(i, j) = H(pi, j) + H(j, i), its triple form, and pi-weighted G symmetry."""
    H, G, X, pi = chain.hitting, chain.greens, chain.exit_pi, chain.stationary
    times = tolerance.bound(H.n, H.time_scale, tolerance.RESIDUAL)
    entries = tolerance.bound(H.n, chain.entry_scale, tolerance.RESIDUAL)
    routes = tolerance.bound(H.n, H.time_scale, tolerance.ROUTE)
    restated = [
        ("row_stochastic", chain.transition.row_sum, tolerance.bound(H.n, 1.0, tolerance.RESIDUAL)),
        ("random_target", chain.hit_time[1], times),
        ("hitting_roundtrip", tolerance.gap(greens.hitting_from_greens(G, pi).values, H.values), times),
        ("greens_from_exit", tolerance.gap(X.values - np.outer(X.access, pi.probs), G.values), entries),
    ]
    for tag, tau in (("uniform", Distribution.uniform(H.n)), ("vertex", Distribution.point_mass(H.n, 0))):
        M = greens.greens_general(greens.Rules(H, pi, tau))
        restated += [
            (f"greens_{tag}_constraint", greens.verify_green_constraints(M, chain.transition), entries),
            (f"greens_{tag}_row_sum", M.row_sum, entries),
        ]
    if chain.graph.undirected:
        # triple(i, j, k) = pair(i, j) + pair(j, k) + pair(k, i), and pi_i G(i, j) - pi_j G(j, i) = -pi_i pi_j pair(i, j)
        h_pi = chain.pi_rules.from_target
        D = H.values - H.values.T
        weighted = pi.probs[:, None] * G.values
        restated += [
            ("cycle_pair", tolerance.gap(h_pi[:, None] + H.values - h_pi[None, :], H.values.T), routes),
            ("cycle_triple", float(np.abs(D[:, :, None] + D[None, :, :] - D[:, None, :]).max()), routes),
            ("greens_symmetry", tolerance.gap(weighted, weighted.T), entries),
        ]
    return restated


# (module, function, probe): probe(*arguments, result) gives the retired checks the function made
RETIRED = [
    (greens, "exit_frequency_matrix", _exit_negative),
    (spectral, "normalized_laplacian", _laplacian_symmetry),
    (spectral, "decompose", _eigen_residuals),
    (duality, "duality_checks", _dual_identities),
    (pipeline, "verify_checks", _verify_restatements),
]
RETIRED_NAMES = CANDIDATES - set(KEPT) - set(RULES) - DEFERRED


def _retired():
    """Bindings that make each function of RETIRED also record the checks its probe gives.

    A probe's own calls into the library record into a ledger of their own,
    which is dropped: the checks they make are not the library's.
    """
    bindings = []
    for module, name, probe in RETIRED:
        func = vars(module)[name]

        def probing(*args, func=func, probe=probe):
            result = func(*args)
            with errors.recorded():
                checks = probe(*args, result)
            for check in checks:
                errors.require(*check)
            return result

        bindings += [(m, name, probing) for m in _modules() if vars(m).get(name) is func]
    return bindings


# ---------------------------------------------------------------------------
# the matrix


@dataclass(frozen=True)
class Matrix:
    fired: dict  # (chain, mutation, command) -> the names of the checks that fail, retired ones included
    shown: set  # (chain, mutation, command) where the command prints something else
    live: set  # (chain, mutation) where some command prints something else

    def counts(self, key: tuple[str, str, str]) -> bool:
        """Whether the mutation counts in the command: it changes what the command prints, or verify audits it."""
        return key in self.shown or (key[2] == "verify" and key[:2] in self.live)

    def sole(self, check: str) -> list[tuple[str, str, str]]:
        """Every (chain, mutation, command) where a mutation that counts is caught by ``check`` and by no other check
        the library makes: for a retired check, a fault its deletion left uncaught."""
        return sorted(
            key for key, names in self.fired.items()
            if check in names and not names - RETIRED_NAMES - {check} and self.counts(key)
        )


NONE = Mutation("none")


def _commands(chain: str):
    return [argv for argv in COMMANDS if argv[0] != "spectral" or chain.startswith("undirected")]


def _run(chain_name: str, argv: list[str], mutation: Mutation) -> tuple[str, list]:
    """What the command prints, its residuals aside, and every check it makes: its ledger, then the checks verify prints.

    A failure that is no check (a chain the mutation made invalid) counts as
    a failed check named after its exception.
    """
    name, beta = CHAINS[chain_name]
    with errors.recorded() as ledger:
        try:
            chain = mutation.chain(analyze(load_graph(str(GOLDEN / f"{name}.edges")), beta))
            args = cli._build_parser().parse_args([argv[0], "--input", name, *argv[1:]])
            output = args.run(args, chain)
            checks = [(name, check["residual"], check["limit"]) for name, check in output.get("checks", {}).items()]
            pieces: list[str] = []
            cli.write_json(pieces.append, {key: value for key, value in output.items() if key != "residuals"})
            printed = "".join(pieces)
        except GreenWalkError as exc:
            checks, printed = [(type(exc).__name__, np.inf, 0.0)], repr(exc)
    return printed, ledger + checks


def _names(checks) -> frozenset[str]:
    return frozenset(re.sub(r"_\d+$", "", check[0]) for check in checks)


@functools.cache
def matrix() -> Matrix:
    fired, shown, base = {}, set(), {}
    for mutation in [NONE, *MUTATIONS]:
        with _patched(_bindings(mutation)), _patched(_retired()):
            for c in CHAINS:
                for argv in _commands(c):
                    command = " ".join(argv)
                    printed, checks = _run(c, argv, mutation)
                    fired[c, mutation.name, command] = _names(filter(failed, checks))
                    base.setdefault((c, command), printed)
                    if argv[0] != "verify" and printed != base[c, command]:
                        shown.add((c, mutation.name, command))
    return Matrix(fired, shown, {key[:2] for key in shown})


def _tag(name: str) -> str:
    if name in KEPT:
        return " (kept)"
    if name in RULES:
        return " (rule)"
    return " (deferred)" if name in DEFERRED else " (retired)"


def table(m: Matrix, chain: str) -> str:
    """Checks against mutations on one chain: in how many commands a check fails, '!' where no other check the
    library makes catches a mutation that counts there."""
    names = sorted(CANDIDATES)
    width = max(len(name + _tag(name)) for name in names) + 2
    lines = [f"{chain}: the commands each check fails in, under each mutation"]
    lines += [f"  {k:2d}  {mutation.name}" + ("" if (chain, mutation.name) in m.live else "  (changes no printed value)")
              for k, mutation in enumerate(MUTATIONS)]
    lines.append(" " * width + "".join(f"{k:>4d}" for k in range(len(MUTATIONS))))
    for name in names:
        sole = {key[1] for key in m.sole(name) if key[0] == chain}
        cells = []
        for mutation in MUTATIONS:
            count = sum(name in names for key, names in m.fired.items() if key[:2] == (chain, mutation.name))
            cells.append(f"{count or '.'}{'!' if mutation.name in sole else ''}")
        lines.append(f"{name + _tag(name):{width}s}" + "".join(f"{cell:>4s}" for cell in cells))
    return "\n".join(lines)


def verdict(check: str) -> str:
    if check in KEPT:
        chain, mutation, command = KEPT[check]
        return f"kept: the only check of {command!r} that catches {mutation!r} on the {chain} chain"
    if check in RULES:
        rule = RULES[check]
        if isinstance(rule, str):
            return f"kept: {rule}"
        shape, d, seed, lazy, command = rule
        return f"kept: the first FAIL of {command} --lazy {lazy} on sweep.py range's {shape} shape, d = {d}, seed {seed}"
    if check in DEFERRED:
        return "deferred: never the only check that catches a mutation"
    return "retired: never the only check that catches a mutation"


# ---------------------------------------------------------------------------
# tests


def test_unmutated_chains_pass_every_check():
    m = matrix()
    assert {key: names for key, names in m.fired.items() if key[1] == NONE.name and names} == {}


def test_library_makes_the_kept_candidates_and_no_retired_one():
    made = {name for c in CHAINS for argv in _commands(c) for name in _names(_run(c, argv, NONE)[1])}
    with _patched(_retired()):
        probed = {name for c in CHAINS for argv in _commands(c) for name in _names(_run(c, argv, NONE)[1])}
    assert made == CANDIDATES - RETIRED_NAMES
    assert probed - made == RETIRED_NAMES  # the probes make exactly the retired candidates


@pytest.mark.parametrize("check", sorted(KEPT))
def test_kept_candidate_alone_catches_its_mutation(check):
    m = matrix()
    chain, mutation, command = KEPT[check]
    assert m.counts((chain, mutation, command))
    assert m.fired[chain, mutation, command] - RETIRED_NAMES == {check}


@pytest.mark.parametrize("check", sorted(name for name, rule in RULES.items() if not isinstance(rule, str)))
def test_rule_kept_check_fails_first_on_its_sweep_run(check, capsys, monkeypatch):
    """A fix that lets the run pass fails this test: the check then loses its rule and is scored like any other."""
    shape, d, seed, lazy, command = RULES[check]
    g = SWEEP_SHAPES[shape](SWEEP_N, seed, d)
    monkeypatch.setattr(cli, "load_graph", lambda path, fmt: g)
    code = cli.main([command, "--input", shape, "--lazy", lazy])
    assert (code, capsys.readouterr().err.split(":", 1)[0]) == (2, f"FAIL {check}")


@pytest.mark.parametrize("check", sorted(RETIRED_NAMES))
def test_retired_candidate_never_alone_catches_a_mutation(check):
    assert matrix().sole(check) == []


@pytest.mark.parametrize("check", sorted(DEFERRED))
def test_deferred_candidate_never_alone_catches_a_mutation(check):
    assert matrix().sole(check) == []


def test_only_check_code_mutations_reach_no_output():
    """hitting_from_greens feeds only spectral_hitting's residual (hitting_roundtrip, retired, read it too); adding
    c_j = -Z_jj to column j of Z moves no H(i, j) = (Z_jj - Z_ij) / pi_j by a bit, as fl(a - b) = -fl(b - a), so only
    fundamental sees it; the lazy blend reaches output on the lazy chain alone, and the eigenvectors on the
    undirected chains alone. On the lazy chain the reversed rows sum to 1 to the bit, so dividing out their drift
    moves nothing."""
    m = matrix()
    moot = {(c, mutation.name) for c in CHAINS for mutation in MUTATIONS} - m.live
    only_checks = {"hitting_from_greens transposed", "Z + 1c^T, c = -diag Z"}
    assert moot == {(c, name) for c in CHAINS for name in only_checks} | {
        (c, "lazy blend into column 0") for c in CHAINS if CHAINS[c][1] == 0.0
    } | {("directed", "eigenvector entry +1e-6"), ("undirected-lazy", "reverse drift kept")}
    assert all(m.fired[c, "Z + 1c^T, c = -diag Z", " ".join(argv)] == {"fundamental"} for c in CHAINS for argv in _commands(c))


if __name__ == "__main__":
    m = matrix()
    for c in CHAINS:
        print(table(m, c), end="\n\n")
    for check in sorted(CANDIDATES):
        print(f"{check:34s} {verdict(check)}")
