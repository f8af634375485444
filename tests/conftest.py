"""Test configuration: acceptance criteria get one summary line each, and
``pool_log`` stands in for the worker pool."""

import pytest

from basket3 import certificates

_acceptance_outcomes: list[tuple[str, str]] = []


def pytest_runtest_logreport(report):
    if report.when != "call" or "test_acceptance.py" not in report.nodeid:
        return
    name = report.nodeid.split("::")[-1]
    if not name.startswith("test_criterion_"):
        return
    outcome = "PASS" if report.outcome == "passed" else report.outcome.upper()
    _acceptance_outcomes.append((name, outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _acceptance_outcomes:
        return
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_acceptance_outcomes):
        terminalreporter.write_line(f"{name}: {outcome}")


@pytest.fixture
def pool_log(monkeypatch):
    """A stand-in worker pool, made from ``certificates.ProcessPoolExecutor``.

    It runs each task in this process when its result is taken, and logs
    each pool's size, every task in order, the tasks of each ``map`` call,
    the ``cancel_futures`` of each shutdown, and ``in_flight``: the most
    tasks of one pool submitted and not yet yielded, taken at each ``map``.
    """
    log = {"sizes": [], "tasks": [], "maps": [], "shutdowns": [], "in_flight": 0}

    class InProcessPool:
        def __init__(self, max_workers):
            log["sizes"].append(max_workers)
            self.in_flight = 0

        def map(self, fn, iterable):
            tasks = list(iterable)
            log["tasks"] += tasks
            log["maps"].append(tasks)
            self.in_flight += len(tasks)
            log["in_flight"] = max(log["in_flight"], self.in_flight)

            def results():
                for task in tasks:
                    result = fn(task)
                    self.in_flight -= 1
                    yield result

            return results()

        def shutdown(self, cancel_futures):
            log["shutdowns"].append(cancel_futures)

    monkeypatch.setattr(certificates, "ProcessPoolExecutor", InProcessPool)
    return log
