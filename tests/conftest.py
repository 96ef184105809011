import os
import pathlib
import sys

import pytest

from mfvol import simlab

# pyproject's pythonpath puts src/ on this process's path; the tests
# that run "python -m mfvol" in a child process need it there too
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [
    str(pathlib.Path(__file__).resolve().parents[1] / "src"),
    os.environ.get("PYTHONPATH")]))


@pytest.fixture(scope="session")
def scenario_dir(tmp_path_factory):
    """One small synthetic scenario shared by the slower tests."""
    out = tmp_path_factory.mktemp("scenario")
    spec = simlab.ScenarioSpec(seed=7, months=14, n_lags=6)
    simlab.gen_full_scenario(spec, str(out))
    return out


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scoreboard after the usual pytest output."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
