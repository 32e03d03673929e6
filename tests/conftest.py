"""Shows the acceptance suite's per-criterion verdicts in every run.

Each criterion in test_acceptance.py prints one PASS/FAIL line with its
runtime.  Output capture keeps those lines out of the terminal, so this
hook repeats them, in test order, in the terminal summary.  Under `-s`
they appear inline instead and are not repeated.
"""


def pytest_terminal_summary(terminalreporter):
    reports = [
        report
        for key in ("passed", "failed")
        for report in terminalreporter.stats.get(key, [])
        if report.when == "call"
    ]
    lines = [
        line
        for report in sorted(reports, key=lambda r: r.nodeid)
        for line in report.capstdout.splitlines()
        if line.startswith(("PASS criterion", "FAIL criterion"))
    ]
    if lines:
        terminalreporter.write_sep("-", "acceptance criteria")
        for line in lines:
            terminalreporter.write_line(line)
