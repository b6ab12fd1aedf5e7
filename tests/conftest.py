# first: importing laxrom pins BLAS to one thread before numpy loads
import laxrom
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))

# the commands the child lane can run, by name; the kdv3_eigen run writes
# into <lane workdir>/kdv3_eigen
LANE_COMMANDS = {
    "kdv3_eigen": ["-m", "laxrom.cli", "run", str(ROOT / "configs" / "kdv3_eigen.ini"),
                   "--out", "kdv3_eigen"],
    **{demo.name: [str(demo)] for demo in DEMOS},
}

_ACCEPTANCE: list = []


class ChildLane:
    """Runs named commands as child Python processes, one at a time, beside
    the tests.  ``pytest_runtest_logfinish`` starts the next child once the
    running one has exited, and ``result`` waits for a command's child."""

    def __init__(self, names):
        self._dir = tempfile.TemporaryDirectory(prefix="laxrom-lane-")
        self.workdir = Path(self._dir.name)
        # the same environment, and the laxrom this session imported
        src = str(Path(laxrom.__file__).resolve().parent.parent)
        self._env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        self._queued = set(names)
        self._pending = list(names)
        self._running = None  # (name, Popen)
        self._done = {}  # name -> (exit status, stderr)
        self.poll()

    def poll(self, wait=False):
        """Reap the running child if it has exited (or once it does, with
        ``wait``), then start the next pending command."""
        if self._running is not None:
            name, proc = self._running
            if (proc.wait() if wait else proc.poll()) is None:
                return
            self._done[name] = proc.returncode, (self.workdir / f"{name}.err").read_text()
            self._running = None
        if self._pending:
            name = self._pending.pop(0)
            with open(self.workdir / f"{name}.err", "w") as err:
                proc = subprocess.Popen([sys.executable, *LANE_COMMANDS[name]],
                                        stdout=subprocess.DEVNULL, stderr=err,
                                        cwd=self.workdir, env=self._env)
            self._running = name, proc

    def result(self, name):
        """(exit status, stderr) of the named command, run now if it was
        not collected for the lane."""
        if name not in self._queued:
            self._queued.add(name)
            self._pending.append(name)
        while name not in self._done:
            self.poll(wait=True)
        return self._done[name]

    def close(self):
        """Stop and reap the running child, and remove the workdir."""
        self._pending.clear()
        if self._running is not None:
            self._running[1].kill()
            self._running[1].wait()
            self._running = None
        self._dir.cleanup()


_LANE = None


@pytest.hookimpl(trylast=True)  # after -k and -m have deselected
def pytest_collection_modifyitems(session, config, items):
    """Start the lane on the commands the collected tests use: the kdv3_eigen
    run for ``kdv3_eigen_table``, then every demo a ``child_lane`` test names."""
    if config.option.collectonly:
        return
    names = []
    for item in items:
        uses = item.fixturenames
        if "kdv3_eigen_table" in uses:
            names.append("kdv3_eigen")
        demo = getattr(item, "callspec", None) and item.callspec.params.get("demo")
        if "child_lane" in uses and demo in DEMOS:
            names.append(demo.name)
    names = sorted(set(names), key=list(LANE_COMMANDS).index)
    if names:
        global _LANE
        _LANE = ChildLane(names)


def pytest_runtest_logfinish(nodeid, location):
    if _LANE is not None:
        _LANE.poll()


def pytest_sessionfinish(session, exitstatus):
    if _LANE is not None:
        _LANE.close()


@pytest.fixture(scope="session")
def child_lane():
    """The session's child lane (see ``ChildLane``)."""
    global _LANE
    if _LANE is None:
        _LANE = ChildLane([])
    return _LANE


@pytest.fixture(scope="session")
def acceptance_log():
    """Shared registry of acceptance verdict lines (printed at the end)."""
    return _ACCEPTANCE


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if _ACCEPTANCE:
        terminalreporter.section("acceptance criteria")
        for line in sorted(_ACCEPTANCE):
            terminalreporter.write_line(line)
