"""Command-line front end: read a graph, run a command on its chain, print the result.

A command returns only its output; the library decides every check as it
computes. Exit status 0 means success, 1 a validation or usage problem, and
2 an integrity failure. A failed check is reported on standard error as
``FAIL name: residual R exceeds L``, and the library raises it before any
output is written. ``verify`` alone records its checks instead of raising
them and prints them: each failed one is reported after its output. The
output goes to standard output as it is formatted, a chunk of matrix rows
at a time, never as one string. Output formatting is fixed at 17
significant digits so identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from . import families
from .duality import duality_checks
from .errors import GreenWalkError, ParseError, ValidationError, describe, failed
from .graph import Distribution, load_graph, read_text
from .greens import GreensMatrix, Rules, exit_frequency_matrix, greens_general, require_constraint
from .hitting import hitting_column
from .montecarlo import empirical_hitting, empirical_random_target
from .pipeline import analyze, spectral_routes, verify_checks
from .spectral import decompose


# ---------------------------------------------------------------------------
# deterministic serialization


def _fmt(x) -> str:
    # adding 0.0 normalizes negative zero
    return format(float(x) + 0.0, ".17g")


# _row_chunks prints float arrays as _fmt would, with array arithmetic
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


def _format_chunk(M, sep: str) -> str:
    """The text of a 2-D float64 array with at least one column: its rows of cells joined by sep, each ending in a newline."""
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
    return cells.tobytes().translate(None, b"\0").decode("ascii")


def _row_chunks(M, sep: str):
    """The text of a 2-D float64 array, one _CHUNK of whole rows at a time; each row ends in a newline."""
    if M.shape[1] == 0:
        yield "\n" * len(M)
        return
    step = max(1, _CHUNK // M.shape[1])
    for start in range(0, len(M), step):
        yield _format_chunk(M[start : start + step], sep)


def _float_array(obj):
    """obj as a float64 array if it is a float array of 1 or 2 dims or a flat sequence of Python floats, else None."""
    if isinstance(obj, np.ndarray):
        return np.asarray(obj, dtype=float) if obj.ndim in (1, 2) and obj.dtype.kind == "f" else None
    return np.array(obj, dtype=float) if all(type(v) is float for v in obj) else None


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


def write_json(write, obj, indent: int = 0) -> None:
    """Fixed-format JSON of obj, passed to write piece by piece: 17 significant digits, insertion-ordered keys.

    Every float array and flat float sequence is formatted by _row_chunks; a
    matrix is written one _CHUNK of whole rows at a time, so no text of a
    whole matrix is ever held.
    """
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            write("{}")
            return
        lead = "{\n"
        for k, v in obj.items():
            write(f"{lead}{pad}  {json.dumps(str(k))}: ")
            write_json(write, v, indent + 1)
            lead = ",\n"
        write("\n" + pad + "}")
    elif isinstance(obj, (list, tuple, np.ndarray)):
        M = _float_array(obj)
        if M is not None:
            if M.ndim == 1:
                write("[" + next(_row_chunks(M[None], ", "))[:-1] + "]")
            elif not len(M):
                write("[]")
            else:
                lead, between = f"[\n{pad}  [", f"],\n{pad}  ["
                for text in _row_chunks(M, ", "):
                    write(lead + text[:-1].replace("\n", between))
                    lead = between
                write("]\n" + pad + "]")
        else:
            seq = list(obj)
            if not seq:
                write("[]")
            elif any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
                lead = "[\n"
                for v in seq:
                    write(f"{lead}{pad}  ")
                    write_json(write, v, indent + 1)
                    lead = ",\n"
                write("\n" + pad + "]")
            else:
                write("[" + ", ".join(_scalar(v) for v in seq) + "]")
    else:
        write(_scalar(obj))


def write_csv(write, rows) -> None:
    """A plain numeric grid with a header row of vertex indices, passed to write one _CHUNK of rows at a time."""
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise TypeError(f"cannot format a {rows.ndim}-D array as rows")
    write(",".join(str(j) for j in range(rows.shape[1])) + "\n")
    for text in _row_chunks(rows, ","):
        write(text)


def _matrix(args, target, rows, residuals):
    if args.format == "csv":
        return functools.partial(write_csv, rows=rows)
    return {"n": len(rows), "target": target, "rows": rows, "residuals": residuals}


# ---------------------------------------------------------------------------
# argument handling


class _Parser(argparse.ArgumentParser):
    # usage errors exit 1, not argparse's default 2 (2 is reserved for
    # integrity failures)
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(1)


@functools.cache
def _build_parser() -> _Parser:
    # parse_args leaves the parser as it found it, so one build serves every call of main
    parser = _Parser(prog="greenwalk", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, run, help, chain=True, matrix=False):
        # each command takes only the options it reads; a chain command reads a graph and its laziness
        p = sub.add_parser(name, help=help)
        p.set_defaults(run=run)
        if chain:
            p.add_argument("--input", required=True, help="graph file, or '-' for stdin")
            p.add_argument("--input-format", choices=["edgelist", "json"], default=None)
            p.add_argument("--lazy", type=float, default=0.0, metavar="BETA", help="laziness in [0, 1)")
        if matrix:
            p.add_argument("--format", choices=["json", "csv"], default="json")
        return p

    command("hitting", _cmd_hitting, "pairwise expected hitting times", matrix=True)
    for name, run in (("green", _cmd_green), ("exitfreq", _cmd_exitfreq)):
        p = command(name, run, "Green function" if name == "green" else "exit-frequency matrix", matrix=True)
        p.add_argument(
            "--target",
            default="pi",
            help="target distribution: 'pi', 'uniform', or a vertex index",
        )
    command("mixing", _cmd_mixing, "mixing times, pessimal vertices, halting states")
    command("spectral", _cmd_spectral, "spectral route for undirected graphs")
    command("dual", _cmd_dual, "reverse-chain duality report")

    fam = command("family", _cmd_family, "closed-form family oracle", chain=False)
    fam.add_argument("name", choices=[*_FAMILIES, "toric", "tree"])
    fam.add_argument("params", nargs="*", type=int, help="family parameters")
    fam.add_argument("--input", default=None, help="tree input file (family 'tree' only)")
    fam.add_argument("--input-format", choices=["edgelist", "json"], default=None)
    fam.add_argument("--measure", default=None, help="print a single measure (e.g. tmix, thit)")

    sim = command("simulate", _cmd_simulate, "seeded random-walk simulation")
    sim.add_argument("--start", type=int, required=True)
    sim.add_argument("--stop", type=int, default=None, help="target vertex; omitted runs the random-target rule")
    sim.add_argument("--trials", type=int, default=10000)
    sim.add_argument("--seed", type=int, default=0)

    ver = command("verify", _cmd_verify, "run every invariant suite on a graph")
    ver.add_argument("--green", default=None, metavar="FILE", help="also check a serialized Green matrix")
    return parser


def _target_rules(label: str, chain) -> Rules:
    if label == "pi":
        return chain.pi_rules
    n = chain.stationary.n
    if label == "uniform":
        return Rules(chain.hitting, chain.stationary, Distribution.uniform(n))
    try:
        k = int(label)
    except ValueError:
        raise ValidationError(f"unknown target {label!r}: use 'pi', 'uniform', or a vertex index") from None
    if not 0 <= k < n:
        raise ValidationError(f"target vertex {k} out of range")
    return Rules(chain.hitting, chain.stationary, Distribution.point_mass(n, k))


# ---------------------------------------------------------------------------
# commands: each maps (args, chain) to its output: text, a JSON value, or a
# function that writes it


def _cmd_hitting(args, chain):
    t_hit, residual = chain.hit_time
    residuals = {"t_hit": t_hit, "random_target": residual}
    return _matrix(args, chain.stationary.probs, chain.hitting.values, residuals)


def _cmd_green(args, chain):
    G = greens_general(_target_rules(args.target, chain))
    residuals = {"constraint": require_constraint(chain, G, "greens_constraint"), "row_sum": G.row_sum}
    return _matrix(args, G.target.probs, G.values, residuals)


def _cmd_exitfreq(args, chain):
    X = exit_frequency_matrix(_target_rules(args.target, chain))
    conservation = require_constraint(chain, X, "exit_conservation")
    residuals = {"conservation": conservation, "row_min": X.row_min, "access_gap": X.access_gap}
    return _matrix(args, X.target.probs, X.values, residuals)


def _cmd_mixing(args, chain):
    rep = chain.mixing
    return {
        "n": chain.graph.n,
        "t_mix": rep.t_mix,
        "t_reset": rep.t_reset,
        "t_hit": rep.t_hit,
        "mixing_times": rep.mixing_times,
        "pessimal": [int(v) for v in rep.pessimal],
        "mixing_pessimal": [int(v) for v in rep.mixing_pessimal],
        "halting_states": [list(row) for row in rep.halting_states],
    }


def _cmd_spectral(args, chain):
    dec = decompose(chain.graph)
    (t_mix, t_reset, t_hit), residuals = spectral_routes(chain, dec)
    return {
        "n": chain.graph.n,
        "eigenvalues": dec.eigenvalues,
        "t_mix": t_mix,
        "t_reset": t_reset,
        "t_hit": t_hit,
        "residuals": residuals,
    }


def _cmd_dual(args, chain):
    rep = duality_checks(chain)
    return {
        "n": chain.graph.n,
        "t_forget": rep.t_forget,
        "forget": rep.forget.probs,
        "reverse_forget": rep.reverse_forget.probs,
        "offsets": rep.offsets,
        "core": rep.core.probs,
        "reverse_rows": rep.reverse.probs,
        "reverse_hitting_rows": rep.reverse_hitting.values,
        "core_exit_rows": rep.core_exit.values,
        "residuals": {"reverse_involution": rep.reverse_involution},
    }


_MEASURE_ALIASES = {"h10": "honezero"}  # measure names compare in lower case with underscores dropped


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


def _cmd_family(args, _):
    # an oracle realizes its own graph and solves its chain: there is no input chain
    name, params = args.name, tuple(args.params)
    for option, value in (("--input", args.input), ("--input-format", args.input_format)):
        if name != "tree" and value is not None:  # only 'tree' reads a graph
            raise ValidationError(f"family {name!r} does not read {option}")
    if name == "toric":
        if not params:
            raise ValidationError("family 'toric' needs at least one cycle length")
        report = families.toric_oracle(params)
    elif name == "tree":
        if args.input is None:
            raise ValidationError("family 'tree' needs --input")
        if params:
            raise ValidationError(f"family 'tree' takes no parameters, got {' '.join(map(str, params))}")
        report = families.tree_oracle(load_graph(args.input, args.input_format))
    else:
        count, oracle = _FAMILIES[name]
        if len(params) != count:
            raise ValidationError(f"family {name!r} takes {count} parameter(s)")
        report = oracle(*params)

    if args.measure is not None:
        keys = {key.replace("_", "").lower(): key for key in report.measures}
        wanted = args.measure.replace("_", "").lower()
        key = keys.get(_MEASURE_ALIASES.get(wanted, wanted))
        if key is None:
            raise ValidationError(
                f"unknown measure {args.measure!r}; available: {', '.join(sorted(report.measures))}"
            )
        return _fmt(report.measures[key]) + "\n"
    return {
        "family": report.family,
        "params": [int(p) for p in report.params],
        "n": report.graph.n,
        "measures": dict(report.measures),
        "details": report.details,
        "solver_residuals": report.solver_residuals,
        "hitting_rows": report.hitting,
        "greens_rows": report.greens,
    }


def _cmd_simulate(args, chain):
    if args.stop is not None:
        # the walk validates --start, --stop and --trials before the solve reads a column
        stats = empirical_hitting(chain.transition, args.start, args.stop, args.trials, args.seed)
        analytic = float(hitting_column(chain.transition, chain.stationary, args.stop)[args.start])
        mode = "hitting"
    else:
        stats = empirical_random_target(chain.transition, chain.stationary, args.start, args.trials, args.seed)
        analytic = chain.hit_time[0]
        mode = "random-target"
    return {
        "mode": mode,
        "trials": stats.trials,
        "mean": stats.mean,
        "stderr": stats.stderr,
        "seed": stats.seed,
        "analytic": analytic,
    }


def _read_green_file(path: str, n: int) -> GreensMatrix:
    """A Green matrix as the green command writes it, for a chain on n vertices."""
    try:
        data = json.loads(read_text(path))
        rows = np.array(data["rows"], dtype=float)
        target = np.array(data["target"], dtype=float)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad Green matrix file: {exc}") from None
    if not (np.isfinite(rows).all() and np.isfinite(target).all()):
        raise ParseError("bad Green matrix file: entries must be finite")
    if rows.shape != (n, n) or target.shape != (n,):
        raise ParseError(
            f"bad Green matrix file: rows of shape {rows.shape} and target of shape {target.shape} "
            f"do not fit a graph on {n} vertices"
        )
    return GreensMatrix(rows, target=Distribution(target))


def _cmd_verify(args, chain):
    green = None if args.green is None else _read_green_file(args.green, chain.graph.n)
    checks = verify_checks(chain, green)
    return {
        "n": chain.graph.n,
        "checks": {
            name: {"residual": residual, "limit": limit, "ok": not failed((name, residual, limit))}
            for name, residual, limit in checks
        },
        "ok": not any(map(failed, checks)),
    }


def _computed(args):
    """The command's output. The chain it reads goes out of scope on return, so only the printed
    arrays stay alive while main writes them."""
    # only the commands that read a chain take --lazy
    chain = analyze(load_graph(args.input, args.input_format), args.lazy) if "lazy" in args else None
    return args.run(args, chain)


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        output = _computed(args)
    except (ParseError, ValidationError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except GreenWalkError as exc:
        # a failure the library raised while computing, a check's or another, ends the command before any output
        sys.stderr.write(f"integrity error: {exc}\n" if exc.check is None else f"FAIL {describe(exc.check)}\n")
        return 2
    # every check is decided by now: the output is written as it is formatted
    write = sys.stdout.write
    if isinstance(output, str):
        write(output)
    elif callable(output):
        output(write)
    else:
        write_json(write, output)
        write("\n")
    if not isinstance(output, dict) or output.get("ok", True):
        return 0
    # verify prints its checks instead of raising them
    for name, check in output["checks"].items():
        if not check["ok"]:
            sys.stderr.write(f"FAIL {describe((name, check['residual'], check['limit']))}\n")
    return 2


if __name__ == "__main__":
    sys.exit(main())
