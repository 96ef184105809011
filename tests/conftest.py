import os
import pathlib
import signal
import sys

import pytest

from mfvol import cli, simlab

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


@pytest.fixture(scope="module")
def pipeline(scenario_dir, tmp_path_factory):
    """rv + pca + midas-fit artifacts shared by the command tests."""
    out = tmp_path_factory.mktemp("pipeline")
    for argv in (["rv", "--intraday", str(scenario_dir / "intraday.csv"),
                  "--out-csv", str(out / "rv.csv"),
                  "--out-sidecar", str(out / "rv_lambda.json")],
                 ["pca", "--daily", str(scenario_dir / "daily.csv"),
                  "--attention", str(scenario_dir / "attention.csv"),
                  "--monthly", str(scenario_dir / "monthly.csv"),
                  "--rv", str(out / "rv.csv"), "--out-dir", str(out)],
                 ["midas-fit", "--factors", str(out / "factors.csv"),
                  "--n-lags", "6", "--out-fit", str(out / "midas_fit.json"),
                  "--out-h", str(out / "h.csv")]):
        assert cli.main(argv) == 0, argv[0]
    return out


@pytest.fixture
def time_bound():
    """A hung queue or worker fails its test after two minutes (the
    calling process then kills and reaps its workers)."""
    def expire(signum, frame):
        raise TimeoutError("the test took over 120 s")
    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(120)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """Echo the acceptance scoreboard after the usual pytest output."""
    module = sys.modules.get("test_acceptance")
    lines = getattr(module, "RESULTS", None) if module else None
    if lines:
        terminalreporter.section("acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
