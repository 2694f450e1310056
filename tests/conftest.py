"""Shared fixtures; collects acceptance-criterion verdict lines and prints
them in the terminal summary so every run ends with one line per criterion."""

import pytest

_LINES: list[str] = []


@pytest.fixture
def criterion_log():
    def log(num: int, ok: bool, detail: str = "") -> None:
        line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
        _LINES.append(line)
        print(line)

    return log


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
