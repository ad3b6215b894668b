import math

import pytest

from greenwalk.errors import IntegrityError, NumericalError, describe, failed, require


class TestFailed:
    @pytest.mark.parametrize(
        "check, fails",
        [
            (("x", 0.5, 1.0), False),
            (("x", 1.0, 1.0), False),
            (("x", 1.5, 1.0), True),
            (("x", math.nan, 1.0), True),
            (("x", 0.0, math.nan), True),
            (("x", math.inf, 1.0), True),
            (("x", 0.0, -1.0), True),
        ],
    )
    def test_fails_unless_residual_is_at_most_limit(self, check, fails):
        assert failed(check) is fails


class TestRequire:
    def test_passing_check_returns(self):
        assert require("x", 1e-12, 1e-10) is None

    @pytest.mark.parametrize("residual", [2e-10, math.nan])
    def test_failing_check_raises_and_carries_it(self, residual):
        with pytest.raises(IntegrityError) as info:
            require("row_sum", residual, 1e-10)
        assert info.value.check[0] == "row_sum" and info.value.check[2] == 1e-10
        assert str(info.value) == describe(info.value.check)

    def test_error_type(self):
        with pytest.raises(NumericalError, match=r"^fundamental: residual 3\.000000e-08 exceeds 1\.000000e-08$"):
            require("fundamental", 3e-8, 1e-8, NumericalError)
