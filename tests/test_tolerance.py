"""tolerance.gap is max |a - b| bit for bit, whether it reduces an array whole or a block of rows at a time.

Every two-route residual goes through ``gap``, so each one equals the
whole-array reduction ``float(np.abs(a - b).max())``: a NaN anywhere makes it
NaN, and a scalar ``b`` is compared with every entry of ``a``.
"""

import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from greenwalk import tolerance


def whole(a, b) -> float:
    with np.errstate(all="ignore"):
        return float(np.abs(np.asarray(a) - b).max())


def same(got, want) -> bool:
    return type(got) is float and (got == want or (math.isnan(got) and math.isnan(want)))


def pairs(shapes):
    """(a, b) float64 arrays of one shape drawn from ``shapes``, with NaN and infinities among the entries."""
    return shapes.flatmap(lambda shape: st.tuples(hnp.arrays(np.float64, shape), hnp.arrays(np.float64, shape)))


@given(pairs(hnp.array_shapes(min_dims=1, max_dims=1, min_side=1, max_side=20)))
def test_vectors(ab):
    a, b = ab
    with np.errstate(all="ignore"):
        assert same(tolerance.gap(a, b), whole(a, b))


@given(pairs(hnp.array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=12)))
def test_matrices_in_blocks_of_a_few_rows(ab):
    a, b = ab
    # blocks of 8 entries: every matrix with more than 8 // columns rows spans several
    with mock.patch.object(tolerance, "_BLOCK", 8), np.errstate(all="ignore"):
        assert len(list(tolerance.row_blocks(a.shape))) == -(-a.shape[0] // max(1, 8 // a.shape[1]))
        assert same(tolerance.gap(a, b), whole(a, b))


@given(
    a=hnp.arrays(np.float64, hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12)),
    b=st.floats() | st.floats().map(np.float64),
)
def test_a_scalar_b(a, b):
    with mock.patch.object(tolerance, "_BLOCK", 8), np.errstate(all="ignore"):
        assert same(tolerance.gap(a, b), whole(a, b))
        assert same(tolerance.gap(a, np.array(b)), whole(a, b))


@given(st.data())
def test_a_nan_anywhere_is_nan(data):
    shape = data.draw(hnp.array_shapes(min_dims=1, max_dims=2, min_side=1, max_side=12))
    finite = hnp.arrays(np.float64, shape, elements=st.floats(-1e6, 1e6))
    a, b = data.draw(finite), data.draw(finite)
    side = data.draw(st.sampled_from([a, b]))
    side.flat[data.draw(st.integers(0, a.size - 1))] = np.nan
    with mock.patch.object(tolerance, "_BLOCK", 8):
        assert math.isnan(tolerance.gap(a, b))


@pytest.mark.parametrize("nan_row", [None, 0, 140, 249])
def test_blocks_of_the_real_size(nan_row):
    # 250 x 250 entries take two blocks of 1 << 15; the transposed view is how symmetry checks call gap
    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((2, 250, 250)) * 10.0 ** rng.integers(-8, 8, size=(2, 250, 250))
    assert len(list(tolerance.row_blocks(a.shape))) == 2
    if nan_row is not None:
        b[nan_row, 7] = np.nan
    assert same(tolerance.gap(a, b), whole(a, b))
    assert same(tolerance.gap(b, b.T), whole(b, b.T))
