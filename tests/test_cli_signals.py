"""SIGTERM during an ``umi-experiments`` sweep (subprocess tests).

* A first SIGTERM drains: no new group starts and the one in flight
  runs to its end.  A second SIGTERM aborts that group at once, and
  ``--resume`` then finishes the sweep from the store.
* A forked ``--jobs N`` agent inherits the CLI's SIGTERM handler, yet
  terminating the agent of an expired lease still ends it at once.
* No agent outlives a coordinator that was killed outright.

A ``hang`` fault plan stands in for a long group: it sleeps before the
group runs, exactly where a signal must cut it short.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.engine import JOURNAL_NAME
from repro.experiments import table2
from repro.experiments.common import ResultCache

SRC = str(Path(__file__).resolve().parent.parent / "src")
SCALE = 0.05


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def _cli(*args):
    return [sys.executable, "-m", "repro.experiments.cli", *args]


def _hang_plan(path, match, seconds):
    path.write_text(json.dumps({"seed": 0, "rules": [
        {"kind": "hang", "match": match, "hang_seconds": seconds}]}))
    return str(path)


def test_second_sigterm_aborts_a_serial_sweep(tmp_path):
    # Hang Table 2's UMI group; its native group lands first.
    cache = ResultCache(scale=SCALE)
    umi = cache.spec_umi(table2.DEFAULT_WORKLOAD, machine="xeon",
                         sampling=True).digest()
    cache.engine.close()
    store = tmp_path / "store"
    args = ["table2", "--scale", str(SCALE), "--store", str(store)]
    proc = subprocess.Popen(
        _cli(*args, "--faults", _hang_plan(tmp_path / "hang.json", umi,
                                           600)),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=_env())
    try:
        journal = store / JOURNAL_NAME
        deadline = time.monotonic() + 120
        while not (journal.exists() and umi in journal.read_text()):
            assert proc.poll() is None, proc.communicate()
            assert time.monotonic() < deadline, "UMI group never granted"
            time.sleep(0.05)
        proc.send_signal(signal.SIGTERM)
        time.sleep(0.5)
        assert proc.poll() is None  # draining waits for the group
        sent = time.monotonic()
        proc.send_signal(signal.SIGTERM)
        out, err = proc.communicate(timeout=30)
        assert time.monotonic() - sent < 10
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    assert proc.returncode == 143, err
    assert "[drained: 1/2 groups completed and checkpointed" in out
    assert "Traceback" not in err

    resumed = subprocess.run(_cli(*args, "--resume"), capture_output=True,
                             text=True, env=_env(), timeout=300)
    assert resumed.returncode == 0, resumed.stderr
    assert "[resume: 3/4 specs already stored" in resumed.stdout
    assert "[wavefront: 1 runs executed, 3 reused" in resumed.stdout


def test_expired_lease_process_ends_when_terminated(tmp_path):
    # Every first attempt hangs past its deadline; the retries run.
    plan = _hang_plan(tmp_path / "hang.json", "*", 120)
    start = time.monotonic()
    done = subprocess.run(
        _cli("table2", "--scale", str(SCALE), "--no-store", "--jobs", "2",
             "--timeout", "2", "--retries", "2", "--faults", plan),
        capture_output=True, text=True, env=_env(), timeout=90)
    assert done.returncode == 0, done.stderr
    assert "[wavefront: 4 runs executed, 0 reused" in done.stdout
    assert time.monotonic() - start < 60


def _live_children(pid):
    """Pids of ``pid``'s children that have not exited (Linux /proc)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def _running(pid):
    try:
        with open(f"/proc/{pid}/stat") as handle:
            return handle.read().rsplit(")", 1)[1].split()[0] != "Z"
    except OSError:
        return False


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_local_agents_do_not_outlive_a_killed_coordinator(tmp_path):
    # Every attempt hangs past its deadline, so expired agents are
    # replaced mid-sweep; then the coordinator is SIGKILLed.
    plan = tmp_path / "hang.json"
    plan.write_text(json.dumps({"seed": 0, "rules": [
        {"kind": "hang", "match": "*", "attempts": 99,
         "hang_seconds": 120}]}))
    proc = subprocess.Popen(
        _cli("table2", "--scale", str(SCALE), "--no-store", "--jobs", "2",
             "--timeout", "1", "--retries", "9", "--faults", str(plan)),
        stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, env=_env())
    agents = set()
    try:
        deadline = time.monotonic() + 60
        while len(agents) < 3:  # two agents and a replacement
            assert proc.poll() is None
            assert time.monotonic() < deadline, "no agent was replaced"
            agents.update(_live_children(proc.pid))
            time.sleep(0.05)
        proc.kill()
        proc.wait()
        deadline = time.monotonic() + 10
        while any(_running(pid) for pid in agents):
            assert time.monotonic() < deadline, "an agent outlived it"
            time.sleep(0.1)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        for pid in agents:
            if _running(pid):
                os.kill(pid, signal.SIGKILL)
