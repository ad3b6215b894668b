"""Command-line front end: parse graphs, dispatch computations, serialize results.

Exit status 0 means success, 1 a validation or usage problem, and 2 an
integrity failure (a residual above tolerance), with the residual report
on standard error. Output formatting is fixed at 17 significant digits so
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import families, graph
from .duality import duality_checks
from .errors import (
    GreenWalkError,
    IntegrityError,
    NumericalError,
    ParseError,
    RunawayError,
    ValidationError,
)
from .graph import Distribution, load_graph, read_text
from .greens import (
    CONSTRAINT_TOL,
    HALTING_TOL,
    ROW_SUM_TOL,
    GreensMatrix,
    exit_frequency_matrix,
    greens_general,
    hitting_from_greens,
    verify_green_constraints,
)
from .hitting import check_cycle_identities, hit_time, time_scale
from .montecarlo import empirical_hitting, empirical_random_target
from .pipeline import analyze
from .spectral import decompose, spectral_greens, spectral_hitting, spectral_mixing


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x) -> str:
    # adding 0.0 normalizes negative zero
    return format(float(x) + 0.0, ".17g")


# _format_rows prints whole float matrices as _fmt would, with array arithmetic
# instead of one dtoa call per float. A cell with 1e-6 < |x| < 1e17 has a decimal
# exponent e = floor(log10|x|) in [-6, 16], so 10^(16 - e) is an exact double and
# Dekker's two-product gives |x| * 10^(16 - e) exactly as hi + lo (Dekker 1971,
# "A floating-point technique for extending the available precision"). Its 17
# digits are that value rounded half to even, as CPython's dtoa rounds. Zero is
# "0"; every other cell (nan, inf, subnormal, tiny, huge) goes through _fmt.
#
# Each cell is laid out as one 48-byte row holding every character any "%.17g"
# of it can print, in print order:
#     "-0.000" d0 "." d1 "." ... d16 "." "e-0X" separator
# The cell's layout, fixed by its exponent, significant digits and sign, zeroes
# the bytes it does not print, and deleting every zero byte of a chunk's rows
# leaves its text. A row's last cell ends in a newline instead of the separator.

# fl(1e-6) lies below 10^-6 and 1e17 is exact, so the decimal exponent of every
# double in (1e-6, 1e17) is in [_E_MIN, _E_MAX]
_E_MIN, _E_MAX = -6, 16
_SPLIT = 134217729.0  # 2^27 + 1, Veltkamp's splitting constant
_CHUNK = 1 << 12  # cells per kernel pass, whole rows at a time: about 1 MB of temporaries
_ROW, _SEP = 48, 44  # bytes per cell row; the separator (at most 2 bytes) starts at _SEP


def _words(table) -> np.ndarray:
    """Rows of 8 bytes as one uint64 each, to be written into cell rows whole."""
    return np.ascontiguousarray(table, dtype=np.uint8).view(np.uint64).ravel()


_LEAD = np.tile(np.frombuffer(b"-0.000?.", np.uint8), (10, 1))
_LEAD[:, 6] = np.arange(48, 58)
_LEAD = _words(_LEAD)  # "-0.000" d0 "."
_QUAD = np.full((10000, 8), ord("."), np.uint8)  # 0..9999 as four digits, each followed by "."
_QUAD[:, ::2] = np.stack(np.meshgrid(*[np.arange(48, 58, dtype=np.uint8)] * 4, indexing="ij"), axis=-1).reshape(-1, 4)
_TRAIL = np.cumprod(_QUAD[:, 6::-2] == ord("0"), axis=1, dtype=np.uint8).sum(axis=1, dtype=np.uint8)  # trailing zeros
_QUAD = _words(_QUAD)
_EXPONENT = _words([list(b"e%+03d\0\0\0\0" % e) for e in range(_E_MIN, _E_MAX + 1)])  # "e-0X", then the separator


def _split(a):
    c = _SPLIT * a
    hi = c - (c - a)
    return hi, a - hi


_P10 = 10.0 ** np.arange(17 - _E_MIN)
_P10_HI, _P10_LO = _split(_P10)


def _scaled(a, e):
    """a * 10^(16 - e) exactly, as a rounded product hi and its error lo."""
    k = 16 - e
    b, b_hi, b_lo = _P10[k], _P10_HI[k], _P10_LO[k]
    a_hi, a_lo = _split(a)
    hi = a * b
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _layouts():
    """The byte mask over a cell row of every "%.17g" layout the kernel prints, as words.

    Row ((e - _E_MIN) * 17 + nz - 1) * 2 + neg is the layout of a value with
    decimal exponent e, nz significant digits and sign neg. The last row is
    "0", the prefix's zero. Every mask keeps the separator.
    """
    e = np.arange(_E_MIN, _E_MAX + 1)[:, None, None, None]
    nz = np.arange(1, 18)[None, :, None, None]
    neg = np.arange(2)[None, None, :, None] == 1
    col = np.arange(_ROW)
    sci, small, big = e < -4, (e < 0) & (e >= -4), e >= 0
    k, dot = np.divmod(col - 6, 2)  # digit k at column 6 + 2k, the dot after it at 7 + 2k
    digit_area = (col >= 6) & (col < 40)
    keep = (col == 0) & neg
    keep = keep | small & ((col == 1) | (col == 2) | ((col >= 3) & (col < 2 - e)))  # "0." and -e-1 zeros
    keep = keep | digit_area & (dot == 0) & ((k < nz) | big & (k <= e))
    keep = keep | digit_area & (dot == 1) & np.where(sci, (k == 0) & (nz > 1), big & (k == e) & (nz > e + 1))
    keep = keep | sci & (col >= 40) & (col < _SEP)
    keep = keep | (col >= _SEP) & (col < _SEP + 2)
    zero = (col == 1) | (col >= _SEP) & (col < _SEP + 2)
    keep = np.concatenate([keep.reshape(-1, _ROW), zero[None]])
    return _words(keep * np.uint8(255)).reshape(len(keep), -1)


_KEEP = _layouts()
_ZERO_LAYOUT = len(_KEEP) - 1


def _decimal(a):
    """The 17 significant digits, as one integer, and the decimal exponent of each a in (1e-6, 1e17)."""
    e = np.minimum(np.maximum(np.floor(np.log10(a)), _E_MIN), _E_MAX).astype(np.intp)
    hi, lo = _scaled(a, e)
    # log10 can be one off near a power of ten: recompute from the exact product
    low = (hi < 1e16) | ((hi == 1e16) & (lo < 0))
    high = (hi > 1e17) | ((hi == 1e17) & (lo >= 0))
    off = np.flatnonzero(low | high)
    if off.size:
        e[off] += high[off].astype(np.intp) - low[off]
        hi[off], lo[off] = _scaled(a[off], e[off])
    # hi >= 1e16 > 2^53 is an even integer, so rint's ties to even on lo round
    # hi + lo half to even. No carry to 10^17: the double nearest below a power of
    # ten in range is at least 4.5e-17 (relative) away from it, and rounding up
    # needs 5e-18.
    return hi.astype(np.int64) + np.rint(lo).astype(np.int64), e


def _cells(digits, e, sep: str):
    """The cell rows of 17-digit integers with decimal exponents e, and their significant digits."""
    cells = np.empty((len(digits), _ROW // 8), np.uint64)
    lead, rest = np.divmod(digits, 10**16)
    cells[:, 0] = _LEAD[lead]
    quads = np.empty((len(digits), 4), np.int64)
    np.divmod(rest, 10**12, out=(quads[:, 0], rest))
    np.divmod(rest, 10**8, out=(quads[:, 1], rest))
    np.divmod(rest, 10**4, out=(quads[:, 2], quads[:, 3]))
    cells[:, 1:5] = _QUAD[quads]
    separator = _words(np.frombuffer(bytes(4) + sep.encode().ljust(4, b"\0"), np.uint8))[0]
    np.bitwise_or(_EXPONENT[e - _E_MIN], separator, out=cells[:, 5])
    # trailing zeros, a quad at a time from the right while the quads are zero
    trail = _TRAIL[quads]
    zero = quads == 0
    nz = 17 - trail[:, 3] - zero[:, 3] * (trail[:, 2] + zero[:, 2] * (trail[:, 1] + zero[:, 1] * trail[:, 0]))
    return cells, nz


def _format_chunk(M, sep: str) -> list[str]:
    """_format_rows of a 2-D float64 array with at least one column."""
    rows, cols = M.shape
    x = M.ravel()
    a = np.abs(x)
    kernel = (a > 1e-6) & (a < 1e17)  # false for nan
    digits, e = _decimal(np.where(kernel, a, 1.0))
    cells, nz = _cells(digits, e, sep)
    layout = ((e - _E_MIN) * 17 + nz - 1) * 2 + (x < 0)
    layout[~kernel] = _ZERO_LAYOUT
    cells &= np.take(_KEEP, layout, axis=0)
    other = np.flatnonzero(~kernel & (x != 0))
    if other.size:
        tail = sep.encode().ljust(_ROW - _SEP, b"\0")
        padded = b"".join(_fmt(v).encode().ljust(_SEP, b"\0") + tail for v in x[other].tolist())
        cells[other] = np.frombuffer(padded, np.uint64).reshape(-1, _ROW // 8)
    last = cells.view(np.uint8).reshape(rows, cols, _ROW)[:, -1]
    last[:, _SEP : _SEP + 2] = (10, 0)
    return cells.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]


def _format_rows(M, sep: str) -> list[str]:
    """Each row of a 1-D or 2-D float array as its "%.17g" % (x + 0.0) cells joined by sep."""
    M = np.asarray(M, dtype=float)
    if M.ndim == 1:
        M = M.reshape(1, -1)
    if M.ndim != 2:
        raise TypeError(f"cannot format a {M.ndim}-D array as rows")
    if M.shape[1] == 0:
        return [""] * len(M)
    step = max(1, _CHUNK // M.shape[1])
    return [row for start in range(0, len(M), step) for row in _format_chunk(M[start : start + step], sep)]


def _float_row(row, sep: str) -> str:
    """A flat float row as its "%.17g" % (x + 0.0) cells joined by sep."""
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


def render_json(obj, indent: int = 0) -> str:
    """Fixed-format JSON: 17 significant digits, insertion-ordered keys."""
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        if _is_float_row(obj):
            return "[" + _float_row(obj, ", ") + "]"
        if isinstance(obj, np.ndarray) and obj.ndim == 2 and obj.dtype.kind == "f" and len(obj):
            items = [f"{pad}  [{row}]" for row in _format_rows(obj, ", ")]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        seq = list(obj)
        if not seq:
            return "[]"
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            items = [f"{pad}  {render_json(v, indent + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_scalar(v) for v in seq) + "]"
    return _scalar(obj)


def render_csv(rows) -> str:
    """Plain numeric grid with a header row of vertex indices."""
    rows = np.asarray(rows, dtype=float)
    lines = [",".join(str(j) for j in range(rows.shape[1]))]
    lines += _format_rows(rows, ",")
    return "\n".join(lines) + "\n"


def _emit_matrix(args, n, target, rows, residuals, out) -> None:
    if args.format == "csv":
        out.write(render_csv(rows))
        return
    payload = {"n": int(n), "target": target, "rows": rows, "residuals": residuals}
    out.write(render_json(payload) + "\n")


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 is reserved for
    # integrity failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


def _build_parser() -> _Parser:
    parser = _Parser(prog="greenwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def with_io(cmd, needs_input=True, **kwargs):
        p = sub.add_parser(cmd, **kwargs)
        if needs_input:
            p.add_argument("--input", required=True, help="graph file, or '-' for stdin")
            p.add_argument("--input-format", choices=["edgelist", "json"], default=None)
        p.add_argument("--lazy", type=float, default=0.0, metavar="BETA", help="laziness in [0, 1)")
        p.add_argument("--tol", type=float, default=1e-8, help="tolerance for time-valued checks")
        p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    with_io("hitting", help="pairwise expected hitting times")
    for cmd in ("green", "exitfreq"):
        p = with_io(cmd, help=f"{'Green function' if cmd == 'green' else 'exit-frequency matrix'}")
        p.add_argument(
            "--target",
            default="pi",
            help="target distribution: 'pi', 'uniform', or a vertex index",
        )
    with_io("mixing", help="mixing times, pessimal vertices, halting states")
    with_io("spectral", help="spectral route for undirected graphs")
    with_io("dual", help="reverse-chain duality report")

    fam = with_io("family", needs_input=False, help="closed-form family oracle")
    fam.add_argument("name", choices=[*_FAMILIES, "toric", "tree"])
    fam.add_argument("params", nargs="*", type=int, help="family parameters")
    fam.add_argument("--input", default=None, help="tree input file (family 'tree' only)")
    fam.add_argument("--input-format", choices=["edgelist", "json"], default=None)
    fam.add_argument("--measure", default=None, help="print a single measure (e.g. tmix, thit)")

    sim = with_io("simulate", help="seeded random-walk simulation")
    sim.add_argument("--start", type=int, required=True)
    sim.add_argument("--stop", type=int, default=None, help="target vertex; omitted runs the random-target rule")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)

    ver = with_io("verify", help="run every invariant suite on a graph")
    ver.add_argument("--green", default=None, metavar="FILE", help="also check a serialized Green matrix")
    return parser


def _target_distribution(label: str, pi: Distribution) -> Distribution:
    if label == "pi":
        return pi
    if label == "uniform":
        return Distribution.uniform(pi.n)
    try:
        k = int(label)
    except ValueError:
        raise ValidationError(f"unknown target {label!r}: use 'pi', 'uniform', or a vertex index") from None
    if not 0 <= k < pi.n:
        raise ValidationError(f"target vertex {k} out of range")
    return Distribution.point_mass(pi.n, k)


# ---------------------------------------------------------------------------
# commands


def _cmd_hitting(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    t_hit, residual = hit_time(sol.hitting, sol.stationary)
    _emit_matrix(
        args,
        sol.graph.n,
        sol.stationary.probs,
        sol.hitting.values,
        {"t_hit": t_hit, "random_target": residual},
        out,
    )
    return 0


def _cmd_green(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    tau = _target_distribution(args.target, sol.stationary)
    G = greens_general(sol.hitting, sol.stationary, tau)
    constraint, row_sum = verify_green_constraints(G, sol.transition)
    _emit_matrix(
        args,
        sol.graph.n,
        tau.probs,
        G.values,
        {"constraint": constraint, "row_sum": row_sum},
        out,
    )
    if constraint > CONSTRAINT_TOL * sol.graph.n or row_sum > ROW_SUM_TOL:
        raise IntegrityError(
            f"Green constraints violated: constraint {constraint:.3e}, row sum {row_sum:.3e}",
            residual=max(constraint, row_sum),
        )
    return 0


def _cmd_exitfreq(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    tau = _target_distribution(args.target, sol.stationary)
    X = exit_frequency_matrix(sol.hitting, sol.stationary, tau)
    n = sol.graph.n
    conservation, _ = verify_green_constraints(X, sol.transition)
    _emit_matrix(
        args,
        n,
        tau.probs,
        X.values,
        {
            "conservation": conservation,
            "row_min": float(X.values.min(axis=1).max()),
            "access_gap": float(np.abs(X.values.sum(axis=1) - X.access).max()),
        },
        out,
    )
    if conservation > CONSTRAINT_TOL * n:
        raise IntegrityError(f"conservation residual {conservation:.3e}", residual=conservation)
    return 0


def _cmd_mixing(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    rep = sol.mixing
    payload = {
        "n": sol.graph.n,
        "t_mix": rep.t_mix,
        "t_reset": rep.t_reset,
        "t_hit": rep.t_hit,
        "mixing_times": rep.mixing_times,
        "pessimal": [int(v) for v in rep.pessimal],
        "mixing_pessimal": [int(v) for v in rep.mixing_pessimal],
        "halting_states": [list(row) for row in rep.halting_states],
    }
    out.write(render_json(payload) + "\n")
    return 0


def _spectral_routes(sol, dec):
    """The spectral (T_mix, T_reset, T_hit) of a chain, and the gap of each spectral route to it."""
    rep = sol.mixing
    factor = 1.0 / (1.0 - sol.transition.beta)  # laziness rescales every expected time
    times = tuple(v * factor for v in spectral_mixing(dec, rep.pessimal))
    gaps = {
        "hitting_route": float(np.abs(spectral_hitting(dec).values * factor - sol.hitting.values).max()),
        "greens_route": float(np.abs(spectral_greens(dec).values * factor - sol.greens.values).max()),
    }
    for key, value, solved in zip(("t_mix", "t_reset", "t_hit"), times, (rep.t_mix, rep.t_reset, rep.t_hit)):
        gaps[key] = abs(value - solved)
    return times, gaps


def _cmd_spectral(args, out) -> int:
    g = load_graph(args.input, args.input_format)
    sol = analyze(g, args.lazy)
    dec = decompose(g)
    (t_mix, t_reset, t_hit), residuals = _spectral_routes(sol, dec)
    payload = {
        "n": g.n,
        "eigenvalues": dec.eigenvalues,
        "t_mix": t_mix,
        "t_reset": t_reset,
        "t_hit": t_hit,
        "residuals": residuals,
    }
    out.write(render_json(payload) + "\n")
    scale = time_scale(sol.hitting.values)
    if max(residuals.values()) > args.tol * scale:
        raise IntegrityError("spectral and hitting-time routes disagree", residual=max(residuals.values()))
    return 0


def _cmd_dual(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    rep = duality_checks(sol)
    payload = {
        "n": sol.graph.n,
        "t_forget": rep.t_forget,
        "forget": rep.forget.probs,
        "reverse_forget": rep.reverse_forget.probs,
        "offsets": rep.offsets,
        "core": rep.core.probs,
        "reverse_rows": sol.reverse.transition.probs,
        "reverse_hitting_rows": sol.reverse.hitting.values,
        "core_exit_rows": rep.core_exit.values,
        "residuals": rep.residuals,
    }
    out.write(render_json(payload) + "\n")
    scale = time_scale(sol.hitting.values)
    worst = max(rep.residuals.values())
    if worst > args.tol * scale:
        raise IntegrityError("a duality identity failed", residual=worst)
    return 0


_MEASURE_ALIASES = {"tmix": "t_mix", "treset": "t_reset", "thit": "t_hit", "h10": "h_one_zero"}


# family -> (parameter count, oracle); 'toric' and 'tree' take their arguments
# differently. The oracles are looked up in ``families`` at call time, so a
# function rebound there (as perfbench's tracer does) is the one called.
_FAMILIES = {
    "complete": (1, lambda n: families.complete_oracle(n)),
    "bipartite": (2, lambda r, s: families.bipartite_oracle(r, s)),
    "star": (1, lambda leaves: families.bipartite_oracle(1, leaves)),
    "path": (1, lambda n: families.path_oracle(n)),
    "cycle": (1, lambda n: families.cycle_oracle(n)),
    "hypercube": (1, lambda d: families.hypercube_oracle(d)),
}


def _cmd_family(args, out) -> int:
    name, params = args.name, tuple(args.params)
    if name == "toric":
        if not params:
            raise ValidationError("family 'toric' needs at least one cycle length")
        report = families.toric_oracle(params)
    elif name == "tree":
        if args.input is None:
            raise ValidationError("family 'tree' needs --input")
        report = families.tree_oracle(load_graph(args.input, args.input_format))
    else:
        count, oracle = _FAMILIES[name]
        if len(params) != count:
            raise ValidationError(f"family {name!r} takes {count} parameter(s)")
        report = oracle(*params)

    if args.measure is not None:
        key = _MEASURE_ALIASES.get(args.measure.replace("_", "").lower(), args.measure)
        if key not in report.measures:
            raise ValidationError(
                f"unknown measure {args.measure!r}; available: {', '.join(sorted(report.measures))}"
            )
        out.write(_fmt(report.measures[key]) + "\n")
        return 0
    payload = {
        "family": report.family,
        "params": [int(p) for p in report.params],
        "n": report.graph.n,
        "measures": dict(report.measures),
        "details": {
            k: v for k, v in report.details.items() if k != "solver_residuals"
        },
        "solver_residuals": report.details.get("solver_residuals", {}),
        "hitting_rows": report.hitting,
        "greens_rows": report.greens,
    }
    out.write(render_json(payload) + "\n")
    return 0


def _cmd_simulate(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    P, pi, H = sol.transition, sol.stationary, sol.hitting
    if args.stop is not None:
        stats = empirical_hitting(P, args.start, args.stop, args.trials, args.seed)
        analytic = float(H.values[args.start, args.stop])
        mode = "hitting"
    else:
        stats = empirical_random_target(P, pi, args.start, args.trials, args.seed)
        analytic = hit_time(H, pi)[0]
        mode = "random-target"
    payload = {
        "mode": mode,
        "trials": stats.trials,
        "mean": stats.mean,
        "stderr": stats.stderr,
        "seed": stats.seed,
        "analytic": analytic,
    }
    out.write(render_json(payload) + "\n")
    return 0


def _verify_checks(sol, tol):
    """Every invariant suite on one chain as (name, residual, limit) triples."""
    g, P, pi, H, G = sol.graph, sol.transition, sol.stationary, sol.hitting, sol.greens
    n, beta = g.n, P.beta
    scale = time_scale(H.values)
    checks = []

    checks.append(("row_stochastic", float(np.abs(P.probs.sum(axis=1) - 1.0).max()), graph.ROW_SUM_TOL))
    checks.append(("stationary", float(np.abs(pi.probs @ P.probs - pi.probs).max()), graph.STATIONARY_TOL))
    first_step = H.values - 1.0 - P.probs @ H.values
    np.fill_diagonal(first_step, 0.0)
    checks.append(("first_step", float(np.abs(first_step).max()), tol * scale))
    t_hit, rti = hit_time(H, pi)
    checks.append(("random_target", rti, tol * scale))

    constraint, row_sum = verify_green_constraints(G, P)
    checks.append(("greens_constraint", constraint, CONSTRAINT_TOL * n))
    checks.append(("greens_row_sum", row_sum, ROW_SUM_TOL))
    checks.append(("trace_vs_hit", abs(float(np.trace(G.values)) - t_hit), tol * scale))
    roundtrip = hitting_from_greens(G, pi)
    checks.append(("hitting_roundtrip", float(np.abs(roundtrip.values - H.values).max()), tol * scale))

    X = sol.exit_pi
    conservation, _ = verify_green_constraints(X, P)
    checks.append(("exit_conservation", conservation, CONSTRAINT_TOL * n))
    checks.append(("exit_row_min", float(X.values.min(axis=1).max()), HALTING_TOL))
    checks.append(("exit_row_sums", float(np.abs(X.values.sum(axis=1) - X.access).max()), tol * scale))
    via_exit = X.values - np.outer(X.access, pi.probs)
    checks.append(("greens_from_exit", float(np.abs(via_exit - G.values).max()), 1e-9 * max(1.0, scale)))

    for tag, tau in (("uniform", Distribution.uniform(n)), ("vertex", Distribution.point_mass(n, 0))):
        Gt = greens_general(H, pi, tau)
        c, r = verify_green_constraints(Gt, P)
        checks.append((f"greens_{tag}_constraint", c, CONSTRAINT_TOL * n))
        checks.append((f"greens_{tag}_row_sum", r, ROW_SUM_TOL))

    try:
        sol.mixing
        checks.append(("mixing_formulas", 0.0, 1.0))
    except IntegrityError as exc:
        checks.append(("mixing_formulas", float(exc.residual or 1.0), tol * scale))

    if beta == 0.0:
        lazy = analyze(g, 0.5)
        gap = float(np.abs(lazy.hitting.values * 0.5 - H.values).max())
        checks.append(("laziness_scaling", gap, tol * scale))

    if g.undirected:
        triple, pair = check_cycle_identities(H, pi)
        checks.append(("cycle_triple", triple, tol * scale))
        checks.append(("cycle_pair", pair, tol * scale))
        sym = float(np.abs(pi.probs[:, None] * G.values - (pi.probs[:, None] * G.values).T).max())
        checks.append(("greens_symmetry", sym, ROW_SUM_TOL))
        _, gaps = _spectral_routes(sol, decompose(g))
        for name, gap in zip(("hitting", "greens", "t_mix", "t_reset", "t_hit"), gaps.values()):
            checks.append((f"spectral_{name}", gap, tol * scale))

    dual = duality_checks(sol)
    for key, value in dual.residuals.items():
        checks.append((f"dual_{key}", value, tol * scale))
    return checks


def _cmd_verify(args, out) -> int:
    sol = analyze(load_graph(args.input, args.input_format), args.lazy)
    checks = _verify_checks(sol, args.tol)
    if args.green is not None:
        try:
            data = json.loads(read_text(args.green))
            rows = np.array(data["rows"], dtype=float)
            target = Distribution(np.array(data["target"], dtype=float))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad Green matrix file: {exc}") from None
        M = GreensMatrix(rows, target=target)
        constraint, row_sum = verify_green_constraints(M, sol.transition)
        checks.append(("file_greens_constraint", constraint, CONSTRAINT_TOL * sol.graph.n))
        checks.append(("file_greens_row_sum", row_sum, ROW_SUM_TOL))
    payload = {
        "n": sol.graph.n,
        "checks": {
            name: {"residual": residual, "limit": limit, "ok": bool(residual <= limit)}
            for name, residual, limit in checks
        },
    }
    failures = [(name, residual, limit) for name, residual, limit in checks if residual > limit]
    payload["ok"] = not failures
    out.write(render_json(payload) + "\n")
    if failures:
        for name, residual, limit in failures:
            sys.stderr.write(f"FAIL {name}: residual {residual:.6e} exceeds {limit:.6e}\n")
        return 2
    return 0


_COMMANDS = {
    "hitting": _cmd_hitting,
    "green": _cmd_green,
    "exitfreq": _cmd_exitfreq,
    "mixing": _cmd_mixing,
    "spectral": _cmd_spectral,
    "dual": _cmd_dual,
    "family": _cmd_family,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args, sys.stdout)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (IntegrityError, NumericalError, RunawayError) as exc:
        sys.stderr.write(f"integrity error: {exc}\n")
        return 2
    except GreenWalkError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
