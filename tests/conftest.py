import sys

import pytest

sys.path.insert(0, 'tests')


@pytest.fixture
def reversed_subset_order(monkeypatch):
    """Index each Cech degree's subsets in reversed order, which changes the
    pivots of every reduction.  Memos are emptied before and after, so no
    certificate built in one order is reused in the other."""
    from toricres import cech

    per_degree = cech._per_degree
    monkeypatch.setattr(cech, "_per_degree",
                        lambda fam, depth: [group[::-1] for group in per_degree(fam, depth)])
    cech.clear_caches()
    yield
    cech.clear_caches()
