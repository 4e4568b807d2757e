"""Stdlib hang guard for every test directory of the repository.

Where pytest-timeout is not installed, every test runs under
:func:`faulthandler.dump_traceback_later` with ``exit=True``, so a hung
worker or recovery dumps all thread tracebacks and ends the run instead of
stalling it. It reads the same ``timeout`` ini value (pyproject.toml). It
lives at the repository root so that ``tests/``, ``benchmarks/`` and
``bench/`` runs all load it, whichever paths pytest is given.
"""

from __future__ import annotations

import faulthandler
import os
import sys

import pytest

_HANG_GUARD_FD = pytest.StashKey[int]()


def pytest_addoption(parser, pluginmanager):
    # pytest-timeout owns the ``timeout`` key where it is installed.
    if not pluginmanager.hasplugin("timeout"):
        parser.addini(
            "timeout", "per-test hang limit in seconds (faulthandler guard)",
            default="0",
        )


def pytest_configure(config):
    if config.pluginmanager.hasplugin("timeout"):
        return
    if float(config.getini("timeout") or 0) > 0:
        # Capture swaps out stderr during tests; dump to a private copy.
        config.stash[_HANG_GUARD_FD] = os.dup(sys.stderr.fileno())


def pytest_unconfigure(config):
    fd = config.stash.get(_HANG_GUARD_FD, None)
    if fd is not None:
        os.close(fd)
        del config.stash[_HANG_GUARD_FD]


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_protocol(item, nextitem):
    fd = item.config.stash.get(_HANG_GUARD_FD, None)
    if fd is None:
        yield
        return
    faulthandler.dump_traceback_later(
        float(item.config.getini("timeout")), exit=True, file=fd
    )
    try:
        yield
    finally:
        faulthandler.cancel_dump_traceback_later()
