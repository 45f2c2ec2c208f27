"""SIGTERM during an ``umi-experiments`` sweep (subprocess tests).

* A first SIGTERM drains: no new group starts and the one in flight
  runs to its end.  A second SIGTERM aborts that group at once, and
  ``--resume`` then finishes the sweep from the store.
* A forked lease process inherits the CLI's SIGTERM handler, yet
  terminating an expired lease still ends its process at once.

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
