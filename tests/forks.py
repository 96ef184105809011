"""Helpers for the tests of code that forks workers (mfvol.parallel)."""

import os

import pytest


def on_cpus(monkeypatch, cpus):
    """Make ``cpus`` CPUs usable to this process; returns the list that
    each fork of it appends to."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    forks, fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return fork()
    monkeypatch.setattr(os, "fork", counted_fork)
    return forks


def no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    return True
