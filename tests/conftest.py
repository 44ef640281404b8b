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
