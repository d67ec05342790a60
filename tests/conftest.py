import numpy as np
import pytest

from bergband import (
    CellGeometry,
    build_cell_quadrature,
    synthesize_profile,
)


@pytest.fixture(scope="session")
def k3_profile():
    """The reference three-target profile used across the suite."""
    return synthesize_profile([0.3, 0.2, 0.1])


@pytest.fixture(scope="session")
def cell_mid():
    return CellGeometry(R0=0.35, h=0.05)


@pytest.fixture(scope="session")
def quad_mid(cell_mid):
    return build_cell_quadrature(cell_mid)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture()
def count_calls(monkeypatch):
    """count_calls(owner, name) wraps owner.name for the test and returns
    the list that collects the positional arguments of each call."""

    def install(owner, name):
        calls = []
        original = getattr(owner, name)

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
        return calls

    return install
