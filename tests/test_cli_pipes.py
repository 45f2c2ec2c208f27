"""CLI output into a pipe whose reader stops early (``... | head``).

Every ``umi-experiments`` subcommand prints through one entry point,
which must end quietly -- no ``BrokenPipeError`` traceback, no
"Exception ignored" shutdown noise -- with the SIGPIPE-style status.
The reader is closed before the CLI starts, so its very first write
hits a broken pipe whatever the output size.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.experiments.cli import EXIT_BROKEN_PIPE
from repro.telemetry import Telemetry, write_telemetry_dir

SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_into_closed_pipe(args):
    """Run the CLI with a stdout pipe whose reader is already gone."""
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", *args],
            stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=120,
        )
    finally:
        os.close(write_end)
    return proc.returncode, proc.stderr.decode()


@pytest.fixture
def telemetry_dir(tmp_path):
    telemetry = Telemetry(enabled=True)
    telemetry.count("engine.specs_executed", n=2)
    with telemetry.span("executor.spec", labels={"workload": "181.mcf"},
                        spec="umi:181.mcf", fused=2):
        pass
    write_telemetry_dir(telemetry, tmp_path / "t")
    return tmp_path / "t"


@pytest.mark.parametrize("subcommand", ["telemetry", "list", "store"])
def test_closed_reader_exits_quietly(subcommand, telemetry_dir, tmp_path):
    args = {
        "telemetry": ["telemetry", str(telemetry_dir)],
        "list": ["--list"],
        "store": ["store", "fsck", "--store", str(tmp_path / "store")],
    }[subcommand]
    code, stderr = run_into_closed_pipe(args)
    assert code == EXIT_BROKEN_PIPE
    assert "Traceback" not in stderr
    assert "BrokenPipeError" not in stderr
    assert "Exception ignored" not in stderr
