from irrgeo import DescentFamily, convergents, window_inequalities


def window_convergents(family: DescentFamily, count: int) -> list[tuple[int, int]]:
    """First `count` continued-fraction convergents of the family's target
    root whose pair lies strictly inside the figure window."""
    batch = count + 8
    while True:
        pairs = [
            (p, q)
            for p, q in convergents(family.radicand, batch)
            if all(w.ok for w in window_inequalities(family, p, q))
        ]
        if len(pairs) >= count:
            return pairs[:count]
        batch += count


def all_figure_families() -> list[DescentFamily]:
    return [
        DescentFamily.sqrt2(),
        DescentFamily.hex6(),
        DescentFamily.triangular(2),
        DescentFamily.triangular(3),
        DescentFamily.triangular(4),
        DescentFamily.triangular(5),
    ]


# one line per acceptance criterion, echoed after the run so the verdicts
# survive pytest's output capture
acceptance_lines: list[str] = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if acceptance_lines:
        terminalreporter.section("acceptance criteria")
        for line in acceptance_lines:
            terminalreporter.write_line(line)
