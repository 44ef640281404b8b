import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT, ROOT / "src"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))


import pytest  # noqa: E402


@pytest.fixture(autouse=True, scope="session")
def _private_cache(tmp_path_factory):
    """Keep the package's certificate cache out of $HOME."""
    mp = pytest.MonkeyPatch()
    mp.setenv("TORICRES_CACHE_DIR", str(tmp_path_factory.mktemp("cache")))
    yield
    mp.undo()
