import random
import re
import signal
from contextlib import contextmanager

import pytest


@pytest.fixture
def rng():
    return random.Random(20260810)


@contextmanager
def deadline(seconds: float):
    """Raise TimeoutError inside the block once `seconds` of wall time pass.

    Use it around a call that could run without limit, so a regression
    fails the test instead of hanging the suite.  Built on SIGALRM, so it
    works only in the main thread.
    """

    def expire(signum, frame):
        raise TimeoutError(f"deadline of {seconds} s passed")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def fraction_guard(monkeypatch):
    """Make serialize's Fraction fail the test on a text whose exponent is
    beyond 4300, where the real one could run without limit."""
    from tbshift import serialize

    real = serialize.Fraction

    def guarded(text):
        exponent = re.search(r"e([-+]?\d+(?:_\d+)*)\s*$", text, re.IGNORECASE)
        if exponent and abs(int(exponent[1])) > 4300:
            pytest.fail(f"Fraction({text!r}) was called")
        return real(text)

    monkeypatch.setattr(serialize, "Fraction", guarded)
