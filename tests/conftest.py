import os
import sys

import pytest

sys.path.insert(0, 'tests')


@pytest.fixture(scope="session", autouse=True)
def certificate_cache_dir(tmp_path_factory):
    """Keep the certificate cache in a session temp dir unless one is set."""
    with pytest.MonkeyPatch.context() as mp:
        if not os.environ.get("TORICRES_CACHE_DIR"):
            mp.setenv("TORICRES_CACHE_DIR", str(tmp_path_factory.mktemp("toricres-cache")))
        yield


@pytest.fixture
def reversed_subset_order(monkeypatch, tmp_path):
    """Index each Cech degree's subsets in reversed order, which changes the
    pivots of every reduction.  Memos are emptied before and after, and the
    certificate cache is an empty dir, so no certificate built in one order
    is read back in the other."""
    from toricres import cech

    per_degree = cech._per_degree
    monkeypatch.setattr(cech, "_per_degree",
                        lambda fam, depth: [group[::-1] for group in per_degree(fam, depth)])
    monkeypatch.setenv("TORICRES_CACHE_DIR", str(tmp_path))
    cech.clear_caches()
    yield
    cech.clear_caches()
