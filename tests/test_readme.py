"""The README's Python snippets must run as documented.

The blocks are executed in order in one namespace (later blocks reuse
names the quickstart defines), in a subprocess because the custom
consumer block registers ``page-touch`` in the process-wide consumer
registry.
"""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"

PYTHON_BLOCK = re.compile(r"^```python\n(.*?)^```", re.S | re.M)


def _readme_python_blocks():
    return PYTHON_BLOCK.findall(README.read_text())


def test_readme_has_the_documented_snippets():
    blocks = _readme_python_blocks()
    assert len(blocks) >= 2
    assert any("register_consumer" in block for block in blocks)


def test_readme_python_blocks_run():
    script = "\n".join(_readme_python_blocks())
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    # The last two prints are the custom consumer's page count and the
    # built-in shadow rider's miss ratio, both from one fused run.
    pages, ratio = proc.stdout.split()[-2:]
    assert int(pages) > 0
    assert 0.0 <= float(ratio) <= 1.0
