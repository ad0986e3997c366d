"""Importing the package stays light.

``scipy.signal`` and ``scipy.spatial`` each add tens of MiB and up to a second
to a fresh interpreter, which every CLI call and worker process pays.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_import_loads_no_heavy_scipy_modules():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    code = (
        "import sys, inhomk; "
        "print([m for m in ('scipy.signal', 'scipy.spatial') if m in sys.modules])"
    )
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True,
        check=True, timeout=60,
    )
    assert out.stdout.strip() == "[]"
