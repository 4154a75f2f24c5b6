import os

import numpy as np
import pytest

from ioimpact import build_model
from ioimpact.ingest import CACHE_ENTRIES
from ioimpact.testkit import canonical_e2

# Analytic 2x2 inverse of (I - A) for the canonical economy: adj / det,
# det(I - A) = 0.5 * 0.6 - 0.2 * 0.3 = 0.24. Independent of the solver.
E2_L = np.array([[0.6, 0.2], [0.3, 0.5]]) / 0.24
E2_A = np.array([[0.5, 0.2], [0.3, 0.4]])


@pytest.fixture(autouse=True)
def cold_parse_cache(tmp_path, monkeypatch):
    """Every test starts with an empty parse cache outside the home directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))


@pytest.fixture(autouse=True)
def cache_left_whole(tmp_path):
    """A test that leaves a temporary file in the cache directory, or more
    than CACHE_ENTRIES entries, fails: an entry is written atomically, and
    each write drops the least recently used past CACHE_ENTRIES."""
    yield
    cache = tmp_path / "xdg-cache" / "ioimpact"
    assert not list(cache.glob("*.tmp"))
    assert len(list(cache.glob("*.npz"))) <= CACHE_ENTRIES


@pytest.fixture(autouse=True)
def no_child_left_behind():
    """A test that leaves a child process unreaped fails. The program
    starts none, so one left behind is a test's own or a regression."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def e2():
    return canonical_e2()


@pytest.fixture
def e2_model(e2):
    return build_model(e2)
