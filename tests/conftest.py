import pytest


@pytest.fixture(autouse=True)
def _own_parse_cache(tmp_path, monkeypatch):
    """Each test, and every pairrank child it starts, keeps its parse cache
    under its own tmp dir, never in the user's cache directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
