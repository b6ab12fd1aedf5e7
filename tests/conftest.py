import pytest

_ACCEPTANCE: list = []


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared registry of acceptance verdict lines (printed at the end)."""
    return _ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE):
            terminalreporter.write_line(line)
