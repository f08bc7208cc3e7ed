"""Shared fixtures: an in-process runner for the ``operadkit`` command line."""

import contextlib
import io
from types import SimpleNamespace

import pytest


class _Capture(io.StringIO):
    """One captured stream; each write is also copied into a log shared
    with the other stream, so the log holds both in write order."""

    def __init__(self, log: io.StringIO):
        super().__init__()
        self.log = log

    def write(self, text: str) -> int:
        self.log.write(text)
        return super().write(text)


def invoke(args) -> SimpleNamespace:
    """Run ``operadkit`` on ``args`` in this process, as the console
    script does, and return its ``exit_code``, ``stdout``, ``stderr`` and
    ``output`` (both streams in write order).  Exceptions other than
    ``SystemExit`` propagate."""
    from operadkit.cli import main
    log = io.StringIO()
    out, err = _Capture(log), _Capture(log)
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            main.main(args=list(args), prog_name="operadkit")
            code = 0
        except SystemExit as ex:
            code = ex.code or 0
    return SimpleNamespace(exit_code=code, stdout=out.getvalue(),
                           stderr=err.getvalue(), output=log.getvalue())


@pytest.fixture()
def cli():
    """The in-process ``operadkit`` runner: ``cli(args)`` -> result."""
    return invoke
