"""parallel.run_all: ``[run(i) for i in range(n)]`` on every usable CPU.

The tests of gm.fit and ``ablate`` that go through it are with those
(test_garch_midas.py's TestRestartWorkers and test_cli.py's TestAblate).
"""

import io
import os
import pickle
import time

import numpy as np
import pytest

from mfvol import parallel

from forks import no_child_left, on_cpus

pytestmark = pytest.mark.usefixtures("time_bound")


def result(i):
    """A stand-in result that says which process ran item ``i``."""
    return i, os.getpid()


def test_a_queue_longer_than_a_pipe_holds(monkeypatch, tmp_path):
    # 20,000 eight-byte indices overfill a 64 KiB pipe, and each
    # worker's results overfill its own pipe before anyone reads them;
    # three workers share the queue with the caller on any host. What
    # the queue cannot take, the caller runs at the end.
    on_cpus(monkeypatch, 4)
    caller, started = os.getpid(), tmp_path / "worker-started"
    # every process appends each index it runs to one shared file
    ran = os.open(tmp_path / "ran", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def run(i):
        os.write(ran, parallel._INDEX.pack(i))
        if os.getpid() != caller:
            started.touch()
        elif i == 0:                # let the worker take a share
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        return result(i)
    n = 20_000
    try:
        results = parallel.run_all(run, n)
    finally:
        os.close(ran)
    assert [i for i, _ in results] == list(range(n))
    assert len({pid for _, pid in results}) >= 2 and no_child_left()
    assert results[-1][1] == caller
    indices = [i for (i,) in parallel._INDEX.iter_unpack(
        (tmp_path / "ran").read_bytes())]
    assert sorted(indices) == list(range(n))


def test_any_result_type_comes_back_whole(monkeypatch):
    # what ablate's groups send: arrays, floats and lists in a tuple
    def run(i):
        rng = np.random.default_rng(i)
        return rng.standard_normal(50), float(i) / 3, [rng.random()] * i
    alone = [run(i) for i in range(6)]
    forks = on_cpus(monkeypatch, 3)
    shared = parallel.run_all(run, 6)
    assert len(forks) == 2 and no_child_left()
    assert len(shared) == len(alone)
    for (a, b, c), (x, y, z) in zip(shared, alone):
        assert a.tobytes() == x.tobytes() and (b, c) == (y, z)


def test_nothing_forks_on_one_cpu(monkeypatch):
    forks = on_cpus(monkeypatch, 1)
    assert parallel.run_all(result, 4) == [(i, os.getpid())
                                           for i in range(4)]
    assert forks == []


@pytest.mark.parametrize("raising", [[1], [1, 2, 3]])
def test_an_item_that_raises_raises_as_if_run_in_order(monkeypatch, tmp_path,
                                                       raising):
    # a worker that raises reports nothing; the caller reruns its item
    # and raises that item's error, the first in item order, whichever
    # process met an error first
    on_cpus(monkeypatch, 2)
    caller, started = os.getpid(), tmp_path / "worker-started"

    def run(i):
        if os.getpid() != caller:
            started.touch()
        elif i == 0:                # the worker takes item 1
            deadline = time.monotonic() + 30
            while not started.exists() and time.monotonic() < deadline:
                time.sleep(0.01)
        if i in raising:
            raise ValueError(f"item {i} failed")
        return result(i)
    with pytest.raises(ValueError, match=f"^item {raising[0]} failed$"):
        parallel.run_all(run, 4)
    assert started.exists() and no_child_left()


def test_an_error_in_the_caller_kills_the_workers(monkeypatch):
    on_cpus(monkeypatch, 3)
    caller = os.getpid()

    def run(i):
        if os.getpid() != caller:
            time.sleep(60)
        raise KeyboardInterrupt
    start = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        parallel.run_all(run, 5)
    assert time.monotonic() - start < 30 and no_child_left()


def test_a_pipe_cut_short_or_garbled_keeps_what_came_whole():
    whole = pickle.dumps((1, result(1)))
    second = pickle.dumps((2, result(2)))
    for rest in (second[:-3], b"garbled" + second,
                 pickle.dumps((9, (9, 0))) + second,
                 pickle.dumps((2, "not a result")) + second):
        found = parallel._reported(io.BytesIO(whole + rest), 5, tuple)
        assert found == {1: result(1)}
