import os
import sys
import tempfile

import pytest

sys.path.insert(0, 'tests')


def pytest_configure(config):
    """A test run writes nothing into the checkout: no bytecode next to the
    sources, and Hypothesis keeps its example database in a temp dir that
    is removed when the run ends.  Hypothesis reads the variable the first
    time it opens its storage, which is after this hook runs."""
    sys.dont_write_bytecode = True
    home = tempfile.TemporaryDirectory(prefix="toricres-hypothesis-")
    config.add_cleanup(home.cleanup)
    os.environ["HYPOTHESIS_STORAGE_DIRECTORY"] = home.name


@pytest.fixture
def reversed_subset_order(monkeypatch):
    """Order each Cech degree's cells in reversed order, so a family
    reduction sees its critical cells reversed, which changes the pivots of
    every reduction.  Memos are emptied before and after, so no certificate
    built in one order is reused in the other."""
    from toricres import cech

    per_degree = cech._per_degree
    monkeypatch.setattr(cech, "_per_degree",
                        lambda cells, depth: [group[::-1] for group in per_degree(cells, depth)])
    cech.clear_caches()
    yield
    cech.clear_caches()


@pytest.fixture
def built_families(monkeypatch):
    """Every family reduction built while the fixture is active, as
    {(Sigma, n): FamilyCerts}, recorded as cech.FamilyCerts constructs it."""
    from toricres import cech

    built = {}

    class Recorded(cech.FamilyCerts):
        __slots__ = ()

        def __init__(self, sigma, n):
            super().__init__(sigma, n)
            built[(sigma, n)] = self

    monkeypatch.setattr(cech, "FamilyCerts", Recorded)
    return built
