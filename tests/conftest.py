"""Shared fixtures for the test suite."""

import io

import pytest

from repro.postscript import Interp, new_interp


class CapturingInterp:
    """An interpreter bundled with its captured output stream."""

    def __init__(self, interp: Interp, out: io.StringIO):
        self.interp = interp
        self.out = out

    def run(self, source: str) -> str:
        """Run source and return everything printed since the last call."""
        before = self.out.tell()
        self.interp.run(source)
        self.out.seek(before)
        return self.out.read()

    def eval(self, source: str):
        """Run source and return the single value left on the stack."""
        self.interp.run(source)
        return self.interp.pop()


@pytest.fixture
def ps():
    """A fresh interpreter with prelude, capturing stdout."""
    out = io.StringIO()
    return CapturingInterp(new_interp(stdout=out), out)


@pytest.fixture
def bare_ps():
    """A fresh interpreter without the prelude (standard operators only)."""
    out = io.StringIO()
    return CapturingInterp(Interp(stdout=out), out)
