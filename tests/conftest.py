"""Shared fixtures; collects acceptance-criterion verdict lines and prints
them in the terminal summary so every run ends with one line per criterion."""

import pytest

from qcatalan import polyq

_LINES: list[str] = []


@pytest.fixture
def criterion_log():
    def log(num: int, ok: bool, detail: str = "") -> None:
        line = f"criterion {num:>2}: {'PASS' if ok else 'FAIL'}  {detail}"
        _LINES.append(line)
        print(line)

    return log


@pytest.fixture(autouse=True)
def empty_product_stays_one():
    """Every build from scratch starts from the kernel record polyq._ONE, so
    no kernel call may leave it changed."""
    yield
    c, e, surplus = polyq._ONE
    assert (c, dict(e), dict(surplus)) == ([1], {}, {}), polyq._ONE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _LINES:
        terminalreporter.section("acceptance criteria")
        for line in _LINES:
            terminalreporter.write_line(line)
