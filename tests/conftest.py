"""Fixtures shared by the test modules."""

import multiprocessing

import pytest

from ffnewman import families


@pytest.fixture
def pool_starts(monkeypatch):
    """The process count of each pool that a sweep starts during the test, in
    order: a counting spy on the Pool of the fork context, the one that
    families._ordered_map calls, which then starts the real pool."""
    fork = multiprocessing.get_context("fork")
    real = fork.Pool
    starts = []

    def spy(processes, *args, **kwargs):
        starts.append(processes)
        return real(processes, *args, **kwargs)

    monkeypatch.setattr(fork, "Pool", spy)
    return starts


@pytest.fixture
def forked(monkeypatch, pool_starts):
    """Sweeps at workers >= 2 fork a pool however few their tasks
    (families.POOL_MIN_TASKS is 1), so a workers 1 vs 2 comparison compares
    a pool with one process. The test fails if no pool started, so it can
    never compare two in-process runs."""
    monkeypatch.setattr(families, "POOL_MIN_TASKS", 1)
    yield pool_starts
    assert pool_starts, "no pool started"
