"""The writers against the per-scalar renderer they replaced, the
float-formatting kernel they print every float array with against "%.17g"
itself, and main's streamed output against both."""

import io
import json
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greenwalk.cli import _CHUNK, main, write_csv, write_json
from greenwalk.generators import random_strongly_connected_digraph
from greenwalk.pipeline import analyze

# ---------------------------------------------------------------------------
# reference: the per-scalar renderer, kept verbatim


def _ref_fmt(x) -> str:
    return format(float(x) + 0.0, ".17g")


def _ref_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        return _ref_fmt(v)
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot serialize {type(v)!r}")


def reference_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {reference_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            items = [f"{pad}  {reference_json(v, indent + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_ref_scalar(v) for v in seq) + "]"
    return _ref_scalar(obj)


def reference_csv(rows) -> str:
    rows = np.asarray(rows, dtype=float)
    if rows.ndim != 2:
        raise TypeError(f"cannot format a {rows.ndim}-D array as rows")
    lines = [",".join(str(j) for j in range(rows.shape[1]))]
    for row in rows:
        lines.append(",".join(_ref_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


def pieces(writer, obj) -> list[str]:
    parts: list[str] = []
    writer(parts.append, obj)
    return parts


def streamed(writer, obj) -> str:
    return "".join(pieces(writer, obj))


def outcome(fn, obj):
    """The rendered text, or the type of the exception raised."""
    try:
        return fn(obj)
    except (TypeError, ValueError, IndexError) as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# payloads

SPECIAL = [-0.0, 0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e-310, -2.5e-320, 1e308, -1e308]
floats = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(SPECIAL)
float_lists = st.lists(floats, max_size=6)
float_arrays = hnp.arrays(
    np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=5), elements=floats
) | hnp.arrays(np.float32, st.integers(0, 5), elements=st.floats(width=32))
other_arrays = hnp.arrays(
    st.sampled_from([np.int64, np.int32, np.bool_]), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4)
)
scalars = (
    floats
    | st.integers(-(10**20), 10**20)
    | st.booleans()
    | st.none()
    | st.text(max_size=4)
    | floats.map(np.float64)
    | st.integers(-100, 100).map(np.int64)
)
leaves = (
    scalars
    | float_lists
    | float_arrays
    | other_arrays
    | st.lists(st.integers(-5, 5) | st.booleans() | st.none(), max_size=5)
    | st.lists(scalars, max_size=5)
    | float_lists.map(tuple)
)
payloads = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4) | st.dictionaries(st.text(max_size=4), children, max_size=4),
    max_leaves=12,
)


class TestRenderJson:
    def test_special_values(self):
        row = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 0.1]
        expected = "[0, nan, inf, -inf, 4.9406564584124654e-324, 1e+308, 0.10000000000000001]"
        assert streamed(write_json, row) == expected
        assert streamed(write_json, np.array(row)) == expected
        mixed = {"a": [], "b": [1, True, None], "c": {}}
        assert streamed(write_json, mixed) == reference_json(mixed)

    @pytest.mark.parametrize("length", [1, 2, 150, 510, 5000])
    def test_flat_rows(self, length):
        # a 1-D row is one row of the kernel, also when it is longer than _CHUNK
        rng = np.random.default_rng(length)
        row = rng.standard_normal(length) * 10.0 ** rng.integers(-8, 18, size=length)
        row[::5] = rng.integers(0, 2**64, size=len(row[::5]), dtype=np.uint64).view(np.float64)
        row[1::11] = -0.0
        for obj in (row, row.tolist(), tuple(row.tolist()), {"v": [row, row[::-1]]}):
            assert streamed(write_json, obj) == reference_json(obj)


# ---------------------------------------------------------------------------
# the kernel, cell by cell against "%.17g", through both writers


def assert_exact(M):
    """write_csv and write_json print the rows of M as the references do, and write_json a 1-D M as one row too."""
    M = np.asarray(M, dtype=float)
    rows = np.atleast_2d(M)
    assert streamed(write_csv, rows) == reference_csv(rows)
    assert streamed(write_json, rows) == reference_json(rows)
    if M.ndim == 1:
        assert streamed(write_json, M) == reference_json(M)


def half_way_ties():
    """x = j / 2^(17 - e), j odd, in decade e: x * 10^(16 - e) = j * 5^(16 - e) / 2 ends in exactly .5.

    Decade 16 has none: every double in [1e16, 1e17) is an even integer.
    """
    ties = []
    for e in range(-6, 16):
        decade = Fraction(10) ** e
        lo = -(-decade * 2 ** (17 - e) // 1)
        hi = min(int(10 * decade * 2 ** (17 - e)), 2**53)
        for j in sorted({(lo + (hi - 1 - lo) * t // 6) | 1 for t in range(7)}):
            x = j / 2 ** (17 - e)
            assert decade <= Fraction(x) < 10 * decade
            assert (Fraction(x) * 10 ** (16 - e)).denominator == 2
            ties.append(x)
    return np.array(ties)


bit_patterns = hnp.arrays(
    np.uint64,
    hnp.array_shapes(min_dims=1, max_dims=2, min_side=0, max_side=6),
    elements=st.integers(0, 2**64 - 1),
).map(lambda a: a.view(np.float64))


class TestFormatRows:
    @settings(max_examples=300, deadline=None)
    @given(bit_patterns)
    def test_bit_patterns(self, M):
        assert_exact(M)

    @settings(max_examples=100, deadline=None)
    @given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=6), elements=floats))
    def test_float_grids(self, M):
        assert_exact(M)

    def test_half_way_ties(self):
        ties = half_way_ties()
        assert len(ties) > 100
        assert_exact(ties)
        assert_exact(-ties)

    def test_decade_carries(self):
        assert_exact([9.9999999999999999e-5, 1e17 - 8, 9.999999999999999e16, 9.9999999999999999e-7, 0.99999999999999999])

    def test_class_edges_and_powers_of_ten(self):
        powers = np.array([float(f"1e{k}") for k in range(-8, 19)])
        near = np.concatenate([powers, np.nextafter(powers, 0), np.nextafter(powers, np.inf)])
        assert_exact(np.concatenate([near, -near]))
        assert_exact([1e-4, 1e-6, 1e16])

    def test_special_values(self):
        assert_exact([0.0, -0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, -1e308])

    def test_fallback_and_kernel_cells_in_one_row(self):
        row = [1e-7, 0.5, float("nan"), -3.25e-300, 123.456, 0.0, 2e17, -1e-5, float("-inf"), 7.0]
        assert_exact(row)
        assert streamed(write_json, row).startswith("[9.9999999999999995e-08, 0.5, nan, -3.2499999999999999e-300")

    def test_empty_sides(self):
        assert streamed(write_csv, np.empty((0, 4))) == "0,1,2,3\n"
        assert streamed(write_csv, np.empty((3, 0))) == "\n" * 4
        assert streamed(write_json, np.empty((0, 4))) == "[]"
        assert streamed(write_json, np.empty((3, 0))) == "[\n  [],\n  [],\n  []\n]"
        assert streamed(write_json, np.empty(0)) == "[]"

    def test_rows_across_chunks(self):
        rng = np.random.default_rng(5)
        tall = rng.integers(0, 2**64, size=(2 * _CHUNK // 3 + 1, 3), dtype=np.uint64).view(np.float64)
        wide = rng.standard_normal((2, _CHUNK + 7)) * 10.0 ** rng.integers(-8, 18, size=(2, _CHUNK + 7))
        assert_exact(tall)
        assert_exact(wide)


# ---------------------------------------------------------------------------
# the writer: the pieces main passes to stdout, one chunk of rows at most


def chunk_rows(cols: int) -> int:
    return max(1, _CHUNK // max(1, cols))


class TestWriter:
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_json_matches_reference(self, obj):
        assert outcome(lambda o: streamed(write_json, o), obj) == outcome(reference_json, obj)

    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5), elements=floats)
        | hnp.arrays(st.sampled_from([np.float32, np.int64]), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4))
    )
    @example(np.zeros(3))  # raises TypeError, as every input that is not 2-D does
    @example(np.zeros((2, 2, 2)))
    def test_csv_matches_reference(self, rows):
        for obj in (rows, rows.tolist()):
            assert outcome(lambda r: streamed(write_csv, r), obj) == outcome(reference_csv, obj)

    @pytest.mark.parametrize(
        "shape",
        [(1, 3), (1, _CHUNK + 5), (4, 0), (0, 4), (2 * _CHUNK // 7 + 3, 7), (3, 2 * _CHUNK + 1)],
        ids=lambda shape: "x".join(map(str, shape)),
    )
    def test_matrices_go_a_chunk_at_a_time(self, shape):
        rng = np.random.default_rng(sum(shape))
        M = rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 18, size=shape)
        M.ravel()[::3] = rng.integers(0, 2**64, size=M.ravel()[::3].size, dtype=np.uint64).view(np.float64)
        single = rng.standard_normal(shape).astype(np.float32)
        nested = {"rows": M, "pair": [M[::-1], {"f32": single, "t": M.T}], "n": len(M)}
        for obj in (M, nested):
            parts = pieces(write_json, obj)
            assert "".join(parts) == reference_json(obj)
            assert max(part.count("\n") for part in parts) <= chunk_rows(min(shape)) + 1
        parts = pieces(write_csv, M)
        assert "".join(parts) == reference_csv(M)
        assert max(part.count("\n") for part in parts) <= chunk_rows(shape[1])


class Recorder(io.StringIO):
    """A stdout that keeps every piece written to it."""

    def __init__(self):
        super().__init__()
        self.pieces: list[str] = []

    def write(self, text):
        self.pieces.append(text)
        return super().write(text)


class TestMainStreams:
    N = 90  # 8100 cells: the matrix spans two chunks

    @pytest.fixture(scope="class")
    def graph_file(self, tmp_path_factory):
        g = random_strongly_connected_digraph(self.N, 3, extra=0.05)
        path = tmp_path_factory.mktemp("streams") / "g.json"
        path.write_text(json.dumps({"n": g.n, "arcs": [list(arc) for arc in g.arcs]}))
        return str(path), analyze(g)

    def run(self, monkeypatch, argv):
        out = Recorder()
        monkeypatch.setattr(sys, "stdout", out)
        code = main(argv)
        return code, out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_hitting_is_written_as_formatted(self, monkeypatch, capsys, graph_file, fmt):
        path, chain = graph_file
        code, out = self.run(monkeypatch, ["hitting", "--input", path, "--format", fmt])
        H = chain.hitting.values
        if fmt == "csv":
            expected = reference_csv(H)
        else:
            t_hit, residual = chain.hit_time
            payload = {"n": self.N, "target": chain.stationary.probs, "rows": H,
                       "residuals": {"t_hit": t_hit, "random_target": residual}}
            expected = reference_json(payload) + "\n"
        assert code == 0 and capsys.readouterr().err == ""
        assert out.getvalue() == expected
        assert max(piece.count("\n") for piece in out.pieces) <= chunk_rows(self.N) + 1

    def test_dual_is_written_as_formatted(self, monkeypatch, capsys, graph_file):
        path, _ = graph_file
        code, out = self.run(monkeypatch, ["dual", "--input", path])
        assert code == 0 and capsys.readouterr().err == ""
        assert out.getvalue() == reference_json(json.loads(out.getvalue())) + "\n"
        assert max(piece.count("\n") for piece in out.pieces) <= chunk_rows(self.N) + 1

    # verify records its builders' checks and prints them; the stationary solve runs as the graph is read, before it
    @pytest.mark.parametrize(
        "command, check",
        [("hitting", "first_step"), ("dual", "first_step"), ("verify", "stationary")],
        ids=["hitting", "dual", "verify"],
    )
    def test_a_check_raised_before_output_writes_nothing(self, monkeypatch, capsys, graph_file, command, check, lower_limit):
        lower_limit(check)
        code, out = self.run(monkeypatch, [command, "--input", graph_file[0]])
        assert code == 2 and out.getvalue() == "" and "".join(out.pieces) == ""
        assert capsys.readouterr().err.startswith(f"FAIL {check}: residual ")
