"""The row-at-a-time renderers against the per-scalar renderer they replaced."""

import json

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greenwalk.cli import render_csv, render_json

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


def reference_render_json(obj, indent: int = 0) -> str:
    pad = "  " * indent
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{pad}  {json.dumps(str(k))}: {reference_render_json(v, indent + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        seq = list(obj)
        if not seq:
            return "[]"
        if any(isinstance(v, (dict, list, tuple, np.ndarray)) for v in seq):
            items = [f"{pad}  {reference_render_json(v, indent + 1)}" for v in seq]
            return "[\n" + ",\n".join(items) + "\n" + pad + "]"
        return "[" + ", ".join(_ref_scalar(v) for v in seq) + "]"
    return _ref_scalar(obj)


def reference_render_csv(rows) -> str:
    rows = np.asarray(rows, dtype=float)
    lines = [",".join(str(j) for j in range(rows.shape[1]))]
    for row in rows:
        lines.append(",".join(_ref_fmt(v) for v in row))
    return "\n".join(lines) + "\n"


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
    @settings(max_examples=300, deadline=None)
    @given(payloads)
    def test_matches_reference(self, obj):
        assert outcome(render_json, obj) == outcome(reference_render_json, obj)

    def test_special_values(self):
        row = [-0.0, float("nan"), float("inf"), -float("inf"), 5e-324, 1e308, 0.1]
        expected = "[0, nan, inf, -inf, 4.9406564584124654e-324, 1e+308, 0.10000000000000001]"
        assert render_json(row) == expected
        assert render_json(np.array(row)) == expected
        assert render_json({"a": [], "b": [1, True, None], "c": {}}) == reference_render_json(
            {"a": [], "b": [1, True, None], "c": {}}
        )


class TestRenderCsv:
    @settings(max_examples=200, deadline=None)
    @given(
        hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, min_side=0, max_side=5), elements=floats)
        | hnp.arrays(st.sampled_from([np.float32, np.int64]), hnp.array_shapes(min_dims=1, max_dims=2, max_side=4))
    )
    def test_matches_reference(self, rows):
        assert outcome(render_csv, rows) == outcome(reference_render_csv, rows)
        assert outcome(render_csv, rows.tolist()) == outcome(reference_render_csv, rows.tolist())
