"""Imports shared by every test session.

Hypothesis draws some of its floats and integers from the literals of the
local modules loaded when a test runs (test files excepted), so the examples
of a derandomized test depend on what else the session has imported: alone,
a test of rates saw other examples than in the full run, where the command
line and verify modules are loaded too. Loading every module of the package
and of the benchmark's point sets here gives each session the same pool, so
a test run alone replays the examples of the full run.
"""

import sys
from pathlib import Path

sys.path.append(str(Path(__file__).resolve().parents[1] / "perfbench"))

import entrate.cli  # noqa: E402,F401  (imports every module of the package)
import workloads  # noqa: E402,F401  (the benchmark's seeded point sets)

import pytest  # noqa: E402

from entrate import models  # noqa: E402


@pytest.fixture
def solves(monkeypatch) -> list:
    """The stack of every eigen-solve the package makes while the test
    runs: each goes through models.eigvals, under whichever module's
    name for it."""
    solved, eigvals = [], models.eigvals
    for module in [m for name, m in sys.modules.items() if name.split(".")[0] == "entrate"]:
        if getattr(module, "eigvals", None) is eigvals:
            monkeypatch.setattr(module, "eigvals", lambda a: solved.append(a) or eigvals(a))
    return solved
