"""Shared pytest plumbing.

The acceptance tests record one summary line per criterion; the hook below
prints them after the test session so they are visible even though pytest
captures per-test stdout. `uniform_state` builds the constant diffuse state
that the diffuse and analysis tests start from.
"""
from haptolab.diffuse import DiffuseState
from haptolab.grid import Grid, ScalarField

ACCEPTANCE_LINES: list[str] = []


def uniform_state(grid: Grid, u: float, v: float, m: float) -> DiffuseState:
    return DiffuseState(
        ScalarField.full(grid, u), ScalarField.full(grid, v),
        ScalarField.full(grid, m), ScalarField.full(grid, 0.0), 0.0,
        ScalarField.full(grid, v),
    )


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
