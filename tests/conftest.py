"""Shared pytest wiring: the acceptance scorecard summary block, and the ids
of variant-parametrised tests."""

# filled by tests/test_acceptance.py, one line per criterion
scorecard_lines: list[str] = []


def positional_ids(count: int, *names: str) -> list[str]:
    """Ids ``variant0``, ``variant1``, ... for rows that open with a variant.

    pytest names a ``Variant`` by its value; the variant-parametrised tests
    keep the position-based ids they are known by.  ``names`` gives, row by
    row, the id of the rest of the row, if any.
    """
    return [f"variant{i}" + (f"-{names[i]}" if names else "") for i in range(count)]


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if scorecard_lines:
        terminalreporter.section("acceptance scorecard")
        for line in scorecard_lines:
            terminalreporter.write_line(line)
