import os
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _own_parse_cache(tmp_path, monkeypatch):
    """Each test, and every pairrank child it starts, keeps its parse cache
    under its own tmp dir, never in the user's cache directory; the
    children import this checkout's package, from its src first."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    monkeypatch.setenv("PYTHONPATH", os.pathsep.join(
        filter(None, [_SRC, os.environ.get("PYTHONPATH")])))
