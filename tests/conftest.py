import numpy as np
import pytest

from ioimpact import build_model
from ioimpact.testkit import canonical_e2

# Analytic 2x2 inverse of (I - A) for the canonical economy: adj / det,
# det(I - A) = 0.5 * 0.6 - 0.2 * 0.3 = 0.24. Independent of the solver.
E2_L = np.array([[0.6, 0.2], [0.3, 0.5]]) / 0.24
E2_A = np.array([[0.5, 0.2], [0.3, 0.4]])


@pytest.fixture(autouse=True)
def cold_parse_cache(tmp_path, monkeypatch):
    """Every test starts with an empty parse cache outside the home directory."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg-cache"))


@pytest.fixture
def e2():
    return canonical_e2()


@pytest.fixture
def e2_model(e2):
    return build_model(e2)
