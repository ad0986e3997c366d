"""The four benchmark workloads: inputs, one call, and the check of its output.

Every workload call goes through module attributes (``study.rejection_study``,
``kstat.k_hat``, ...) so the traced run can replace them with timing wrappers.

The workloads whose result depends on a random pattern draw their inputs from
a pool of ``POOL`` recorded seeds: the benchmark seed only fixes the order in
which a run visits the pool, and every call's output is compared with the
result recorded for its pool seed in ``reference.json`` (see ``record.py``).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from pathlib import Path

import numpy as np

from inhomk import asymcov, cli, intensity, kstat, limitlaw, simulate, study
from inhomk.geometry import Window
from inhomk.io import read_matrix_csv

HERE = Path(__file__).resolve().parent
REFERENCE = HERE / "reference.json"

POOL = 32
REPLICATES = 200
STUDY_SIDES = (1.0, 2.0)
STUDY_MODES = ("estimated", "known")
COV_GRID = 50
COV_FILES = ("sigma11", "sigma2", "c", "c_estimated", "c_tilde")
CLOSED_FORM_RTOL = 1e-9
BLOCK_RTOL = 1e-10


def pool_order(seed: int) -> np.ndarray:
    """The order in which a run with benchmark seed ``seed`` visits the pool."""
    return np.random.default_rng([seed, 1]).permutation(POOL)


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def _close(value, expected, rtol: float) -> bool:
    value = np.asarray(value, dtype=float)
    expected = np.asarray(expected, dtype=float)
    if value.shape != expected.shape:
        return False
    return bool(np.all(np.abs(value - expected) <= rtol * np.abs(expected)))


class _PooledWorkload:
    """Inputs are pool seeds; outputs are checked against the recorded entries."""

    def __init__(self, seed: int, reference: dict | None):
        self.order = pool_order(seed)
        self.reference = reference

    def input(self, k: int):
        return self.build(int(self.order[k % POOL]))

    def output(self, inp, result):
        """The comparable output of one call, built outside the timed region."""
        return result

    def summary(self, out):
        """The part of an output that ``reference.json`` records, JSON-ready."""
        return out

    def check(self, inp, out) -> list[str]:
        entry = self.reference[str(self.pool_seed(inp))]
        return self.compare(out, entry)


class StudyWorkload(_PooledWorkload):
    """``rejection_study`` in the Table-1 shape, ``REPLICATES`` per side."""

    root = "study"

    def __init__(self, name: str, seed: int, reference: dict | None):
        super().__init__(seed, reference and reference[name])
        self.name = name
        if name == "poisson-study":
            self.process = dict(process="poisson", rho=200.0)
        else:
            self.process = dict(
                process="matern", matern=simulate.MaternParams(25.0, 8.0, 0.2)
            )

    def build(self, pool_seed: int):
        return study.StudyConfig(
            **self.process,
            sides=STUDY_SIDES,
            modes=STUDY_MODES,
            replicates=REPLICATES,
            R=0.05,
            grid_size=50,
            sample_size=10_000,
            seed=pool_seed,
            workers=1,
        )

    @staticmethod
    def pool_seed(inp) -> int:
        return inp.seed

    @staticmethod
    def call(inp):
        return study.rejection_study(inp)

    def output(self, inp, result) -> list:
        return [[c.side, c.mode, c.rejections, c.failures] for c in result.cells]

    @staticmethod
    def compare(out, entry) -> list[str]:
        if out != entry:
            return [f"rejection table {out} != recorded {entry}"]
        return []

    @staticmethod
    def same(a, b) -> bool:
        return a == b


class AnalysisWorkload(_PooledWorkload):
    """One log-linear analysis of a simulated inhomogeneous Poisson pattern."""

    name = "inhom-analysis"
    root = "analysis"
    beta_star = (math.log(200.0), 0.5, 0.3)
    samples = 2**12
    draws = 10_000
    alpha = 0.05

    def __init__(self, seed: int, reference: dict | None):
        super().__init__(seed, reference and reference[self.name])
        self.window = Window(2, 2.0)
        self.field = intensity.CovariateField.from_function(
            self.window,
            lambda p: np.column_stack([np.ones(len(p)), p[:, 0], np.sin(3.0 * p[:, 1])]),
            32,
        )
        self.true_model = intensity.LogLinearIntensity(np.array(self.beta_star), self.field)
        self.rho_max = float(self.true_model.cell_values().max())
        self.grid = kstat.RadiusGrid.uniform(0.05, 10)

    def build(self, pool_seed: int):
        return pool_seed

    @staticmethod
    def pool_seed(inp) -> int:
        return inp

    def call(self, pool_seed: int) -> dict:
        pattern = simulate.simulate_poisson_inhom(
            self.true_model, self.rho_max, self.window, pool_seed
        )
        fit = intensity.fit_loglinear(pattern, self.field)
        model = intensity.LogLinearIntensity(fit.beta_hat, self.field)
        khat = kstat.k_hat(pattern, model, self.grid)
        hmat = kstat.h_matrix(pattern, model, self.grid)
        blocks = asymcov.loglinear_sigma_blocks(
            self.field,
            fit.beta_hat,
            asymcov.POISSON_DENSITIES,
            self.grid,
            asymcov.QuadratureConfig(samples=self.samples),
        )
        cov = asymcov.compose_lim_cov(asymcov.h_limit_loglinear(blocks), blocks)
        sample = limitlaw.simulate_sup(cov, self.draws, pool_seed)
        crit = limitlaw.critical_value(sample, self.alpha)
        null = kstat.k_poisson(self.grid.values, 2)
        statistic = math.sqrt(self.window.volume) * float(np.abs(khat.values - null).max())
        return {
            "pattern": pattern,
            "fit": fit,
            "khat": khat.values,
            "h": hmat.values,
            "sigma11": blocks.sigma11,
            "sigma2": blocks.sigma2,
            "c": blocks.c,
            "cov": cov.matrix,
            "crit": crit,
            "statistic": statistic,
        }

    def summary(self, out) -> dict:
        return {
            "points": len(out["pattern"]),
            **{k: np.asarray(out[k]).tolist() for k in ("khat", "h", "sigma11", "sigma2", "c")},
            "crit": out["crit"],
        }

    def compare(self, out, entry) -> list[str]:
        problems = []
        fit = out["fit"]
        if not fit.converged:
            problems.append("fit_loglinear did not converge")
        score = intensity.cl_score(
            out["pattern"], intensity.LogLinearIntensity(fit.beta_hat, self.field)
        )
        if np.abs(score).max() > 1e-8 * self.window.volume:
            problems.append(f"|cl_score| {np.abs(score).max():.3g} exceeds 1e-8 |W|")
        try:
            limitlaw.cholesky_with_jitter(out["cov"])
        except ValueError as err:
            problems.append(f"composed covariance: {err}")
        if len(out["pattern"]) != entry["points"]:
            problems.append(f"{len(out['pattern'])} points, recorded {entry['points']}")
        for key in ("khat", "h", "sigma11", "sigma2", "c", "crit"):
            if not _close(out[key], entry[key], BLOCK_RTOL):
                problems.append(f"{key} differs from the recorded value beyond rtol {BLOCK_RTOL}")
        return problems

    @staticmethod
    def same(a, b) -> bool:
        return all(
            np.array_equal(np.asarray(a[k]), np.asarray(b[k]))
            for k in ("khat", "h", "sigma11", "sigma2", "c", "cov", "crit", "statistic")
        ) and np.array_equal(a["pattern"].points, b["pattern"].points)


class CovWorkload:
    """``inhomk cov --beta <b> --grid 50`` in-process, Poisson densities.

    ``b`` is drawn per call from the benchmark seed in [150, 250]. Poisson
    densities make the quadrature exact, so every written matrix is checked
    against the closed forms.
    """

    name = "cov-grid50"
    root = "cli"

    def __init__(self, seed: int, workdir: Path):
        self.betas = np.random.default_rng([seed, 2]).uniform(150.0, 250.0, size=POOL)
        self.prefix = str(workdir / "cov")
        self.grid = kstat.RadiusGrid.uniform(0.05, COV_GRID)

    def input(self, k: int) -> list[str]:
        beta = float(self.betas[k % POOL])
        return ["cov", "--beta", repr(beta), "--grid", str(COV_GRID), "-o", self.prefix]

    @staticmethod
    def call(argv: list[str]) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def output(self, argv, code: int) -> dict:
        matrices = {name: read_matrix_csv(f"{self.prefix}.{name}.csv") for name in COV_FILES}
        return {"code": code, **matrices}

    def check(self, argv, out) -> list[str]:
        if out["code"] != 0:
            return [f"inhomk cov exited with {out['code']}"]
        beta = float(argv[2])
        exact = asymcov.poisson_blocks(beta, self.grid)
        known = asymcov.poisson_cov_matrix(self.grid, beta, "known").matrix
        estimated = asymcov.poisson_cov_matrix(self.grid, beta, "estimated").matrix
        expected = {
            "sigma11": exact.sigma11,
            "sigma2": exact.sigma2,
            "c": known,
            "c_estimated": estimated,
            "c_tilde": estimated,
        }
        return [
            f"{name} differs from the closed form beyond rtol {CLOSED_FORM_RTOL}"
            for name, want in expected.items()
            if not _close(out[name], want, CLOSED_FORM_RTOL)
        ]

    @staticmethod
    def same(a, b) -> bool:
        return a["code"] == b["code"] and all(
            np.array_equal(a[name], b[name]) for name in COV_FILES
        )


def build(name: str, seed: int, workdir: Path, reference: dict | None):
    """The workload ``name`` with its inputs built from the benchmark seed."""
    if name in ("poisson-study", "matern-study"):
        return StudyWorkload(name, seed, reference)
    if name == "cov-grid50":
        return CovWorkload(seed, workdir)
    if name == "inhom-analysis":
        return AnalysisWorkload(seed, reference)
    raise ValueError(f"unknown workload {name!r}")
