import math
from pathlib import Path

import pytest

from greenwalk.errors import IntegrityError, NumericalError, describe, failed, recorded, require, worst
from greenwalk.graph import load_graph
from greenwalk.pipeline import analyze


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
        residual = require("x", 1e-12, 1e-10)
        assert residual == 1e-12 and type(residual) is float

    @pytest.mark.parametrize("residual", [2e-10, math.nan])
    def test_failing_check_raises_and_carries_it(self, residual):
        with pytest.raises(IntegrityError) as info:
            require("row_sum", residual, 1e-10)
        assert info.value.check[0] == "row_sum" and info.value.check[2] == 1e-10
        assert str(info.value) == describe(info.value.check)

    def test_error_type(self):
        with pytest.raises(NumericalError, match=r"^fundamental: residual 3\.000000e-08 exceeds 1\.000000e-08$"):
            require("fundamental", 3e-8, 1e-8, NumericalError)


class TestRecorded:
    def test_records_each_check_in_order_and_raises_none(self):
        with recorded() as outer:
            require("a", 1e-12, 1e-10)
            with recorded() as inner:  # an inner ledger keeps its checks out of the outer one
                require("b", 2.0, 1.0)
            require("c", 2e-10, 1e-10, NumericalError)
        assert outer == [("a", 1e-12, 1e-10), ("c", 2e-10, 1e-10)] and inner == [("b", 2.0, 1.0)]

    def test_an_exception_ends_the_context(self):
        with pytest.raises(KeyError), recorded():
            raise KeyError
        with pytest.raises(IntegrityError):
            require("x", 2.0, 1.0)

    @pytest.mark.parametrize(
        "graph, names",
        [("directed", ["stationary", "fundamental", "first_step"]), ("undirected", ["fundamental", "first_step"])],
    )
    def test_hitting_records_its_builders_checks(self, graph, names):
        # an undirected graph's pi is the closed form deg / vol, which no solve produces and no check confirms
        with recorded() as ledger:
            analyze(load_graph(str(Path(__file__).parent / "golden" / f"{graph}.edges"))).hitting
        assert [name for name, _, _ in ledger] == names


class TestWorst:
    def test_one_check_per_name_in_first_recorded_order(self):
        ledger = [("a", 1.0, 4.0), ("b", 1.0, 1.0), ("a", 1.0, 2.0), ("a", 1.0, 3.0)]
        assert worst(ledger) == [("a", 1.0, 2.0), ("b", 1.0, 1.0)]

    def test_a_failed_check_wins(self):
        # a lowered limit gives a negative ratio, and a NaN residual none
        assert worst([("a", 0.9, 1.0), ("a", 0.5, -1.0), ("a", 0.99, 1.0)]) == [("a", 0.5, -1.0)]
        (check,) = worst([("a", 0.9, 1.0), ("a", math.nan, 1.0)])
        assert math.isnan(check[1])
