"""numpy is the only runtime dependency: no part of scipy is ever imported.

Every CLI call and worker process pays for what ``import inhomk`` loads:
``scipy.special`` alone doubles the peak memory of a fresh interpreter, and
``scipy.signal`` and ``scipy.spatial`` each add tens of MiB and up to a second.
The test runs a fresh interpreter with scipy blocked, so neither an import at
load time nor a lazy one deep in a call can pass, and nothing this test
session imported counts. For the same reason a plain import loads no
process-pool modules: only a study with several workers needs them.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

# A meta-path finder that refuses scipy and every submodule.
BLOCK_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, NoScipy())
"""


def run_fresh(code: str) -> subprocess.CompletedProcess:
    # A fresh interpreter with the package's sources first on its path.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60,
    )


def test_import_quadrature_and_cli_cov_run_without_scipy(tmp_path):
    prefix = str(tmp_path / "blocks")
    code = BLOCK_SCIPY + f"""
import inhomk
from inhomk import cli
from inhomk.asymcov import POISSON_DENSITIES, QuadratureConfig, sigma_blocks_constant
from inhomk.kstat import RadiusGrid

grid, quad = RadiusGrid.uniform(0.05, 5), QuadratureConfig(samples=2**10)
for dim in (1, 2, 3):
    sigma_blocks_constant(POISSON_DENSITIES, 200.0, grid, quad, dim=dim)
argv = ["cov", "--dim", "3", "--beta", "200", "--grid", "5"]
assert cli.main(argv + ["-o", {prefix!r}]) == 0
assert not [m for m in sys.modules if m.split(".")[0] == "scipy"]
try:
    import scipy
except ImportError:
    print("blocked")
"""
    out = run_fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "blocked"
    assert (tmp_path / "blocks.c.csv").exists()


def test_import_starts_no_process_pool_machinery():
    # Only a study with workers > 1 starts a pool; every other import, CLI
    # call and benchmark set-up would pay for these modules and the dozens
    # they pull in (subprocess, socket, logging).
    code = """
import sys
import inhomk
print(sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules))
"""
    out = run_fresh(code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == "[]"
