import os
import re
import subprocess
import sys

import dyson_laguerre

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_quick_start_runs(tmp_path):
    # the README's one python block is the quick start; it must run as shown
    # against the package sources, warning-free, in a fresh interpreter
    with open(os.path.join(REPO_ROOT, "README.md"), encoding="utf-8") as fh:
        blocks = re.findall(r"^```python\n(.*?)^```$", fh.read(), re.M | re.S)
    assert len(blocks) == 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(dyson_laguerre.__file__)))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-c", blocks[0]],
        capture_output=True,
        text=True,
        timeout=120,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert done.returncode == 0, done.stderr
