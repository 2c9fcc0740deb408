import os
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
FIXTURES = REPO_ROOT / "fixtures"
AUTOMATA = FIXTURES / "automata"
GOLDEN = Path(__file__).resolve().parent / "golden"

sys.path.insert(0, str(REPO_ROOT / "src"))


@pytest.fixture(scope="session")
def fixtures_dir():
    return FIXTURES


@pytest.fixture(scope="session")
def automata_dir():
    return AUTOMATA


@pytest.fixture(scope="session")
def solver_cmd():
    """Solver command template for tests: the environment override if set,
    else None, the bundled backend."""
    return os.environ.get("SSLTL_SOLVER_CMD")


@pytest.fixture
def bundled_backend(monkeypatch):
    """No external solver configured, whatever the environment holds."""
    monkeypatch.delenv("SSLTL_SOLVER_CMD", raising=False)
