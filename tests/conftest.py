import pytest

from laxrom.cli import _keep_freed_heap

_ACCEPTANCE: list = []


def pytest_configure(config):
    # the suite runs laxrom in-process: give it the allocator thresholds
    # that `laxrom` sets on the command line, so the reduced step's freed
    # arrays are reused instead of faulted in again as fresh pages
    _keep_freed_heap()


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared registry of acceptance verdict lines (printed at the end)."""
    return _ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE):
            terminalreporter.write_line(line)
