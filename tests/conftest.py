from __future__ import annotations

import concurrent.futures
from concurrent.futures import Future

import pytest
from hypothesis import HealthCheck, settings

from termcert.fixtures import coin_loops, halving_game, random_walk

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much],
)
settings.load_profile("ci")


@pytest.fixture(scope="session")
def halving():
    return halving_game()


@pytest.fixture(scope="session")
def walk():
    return random_walk()


@pytest.fixture(scope="session")
def coins():
    return coin_loops()


@pytest.fixture
def inline_pool(monkeypatch):
    """Replace concurrent.futures.ProcessPoolExecutor, which `_pool.fan_out`
    imports when it starts a pool for the checker or the simulator, by one
    that runs each task in this process and records the pool sizes asked
    for, so that a process count can be tested without starting a process.
    Both serial budgets are set to 0, so all work goes to the pool, split as
    `workers` asks; a test may set a budget again.  Usage: `sizes =
    inline_pool()`."""

    def install():
        from termcert import checker, semantics

        monkeypatch.setattr(checker, "_SERIAL_CONDITIONS", 0)
        monkeypatch.setattr(semantics, "_SERIAL_STEPS", 0)
        sizes = []

        class InlinePool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def submit(self, fn, *args):
                future = Future()
                try:
                    future.set_result(fn(*args))
                except Exception as exc:  # handed back like a worker's error
                    future.set_exception(exc)
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InlinePool)
        return sizes

    return install
