"""Terminal reporting for the acceptance gate: one line per criterion.

irlv is imported first, before any test module loads numpy, so the suite
runs under the package's one-thread BLAS default as the CLI does.
"""

import re

import irlv  # noqa: F401

_CRITERION = re.compile(r"test_acceptance\.py::.*test_criterion_(\d+)_(\w+)")
_results: dict[int, tuple[str, str]] = {}


def pytest_runtest_logreport(report):
    m = _CRITERION.search(report.nodeid)
    if m is None:
        return
    num, name = int(m.group(1)), m.group(2)
    if report.when == "call":
        _results[num] = (name, "PASS" if report.passed else "FAIL")
    elif report.failed:  # setup or teardown error
        _results[num] = (name, "FAIL")
    elif report.skipped:
        _results[num] = (name, "FAIL (skipped)")


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(_results):
        name, verdict = _results[num]
        terminalreporter.write_line(f"criterion {num} ({name}): {verdict}")
