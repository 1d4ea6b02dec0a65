"""The README's library quickstart runs as written against the source tree."""
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_readme_python_blocks_run():
    with open(os.path.join(ROOT, "README.md")) as f:
        blocks = re.findall(r"^```python\n(.*?)^```", f.read(), re.M | re.S)
    assert blocks
    for code in blocks:
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=120, cwd=ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")})
        assert proc.returncode == 0, proc.stderr
