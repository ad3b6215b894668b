import sys

import pytest

from greenwalk import errors, families, pipeline
from greenwalk.graph import WeightedDigraph


@pytest.fixture
def p3():
    """Path 0-1-2: every quantity is known by hand."""
    return pipeline.analyze(families.path_graph(3))


@pytest.fixture
def directed_triangle():
    g = WeightedDigraph(3, ((0, 1, 1.0), (1, 2, 1.0), (2, 0, 1.0)))
    return pipeline.analyze(g)


@pytest.fixture
def lower_limit(monkeypatch):
    """lower_limit(target) drops the limit of the check ``target`` below zero in every module that calls require."""
    real = errors.require

    def lower(target):
        def require(name, residual, limit, *error):
            return real(name, residual, -1.0 if name == target else limit, *error)

        for name, module in sys.modules.items():
            if name.startswith("greenwalk.") and vars(module).get("require") is real:
                monkeypatch.setattr(module, "require", require)

    return lower
