"""Checks that span the whole test run."""

import re

import pytest

#: the warning Python 3.12+ gives when a process forks with a thread alive.
#: An ``error`` warning filter cannot fail a test on it: ``os.fork`` clears
#: the exception such a filter raises, and the fork goes on silently.  So the
#: warning is recorded (pyproject.toml) and a recorded one fails the run.
_FORK_WITH_THREADS = re.compile(r"This process \(pid=\d+\) is multi-threaded")
_forked_in = []


def pytest_warning_recorded(warning_message, nodeid):
    if _FORK_WITH_THREADS.match(str(warning_message.message)):
        _forked_in.append(nodeid)


def pytest_terminal_summary(terminalreporter):
    for nodeid in _forked_in:
        terminalreporter.write_line(f"FAILED {nodeid}: forked with a thread alive")


def pytest_sessionfinish(session):
    if _forked_in:
        session.exitstatus = pytest.ExitCode.TESTS_FAILED
