import re
from dataclasses import replace

import numpy as np
import pytest

from inhomk import study
from inhomk.asymcov import poisson_cov_matrix
from inhomk.geometry import Window, scan_rows
from inhomk.gof import GofConfig, critical_values, gof_test, sup_distance
from inhomk.intensity import ConstantIntensity
from inhomk.kstat import RadiusGrid, k_hat
from inhomk.seeds import stream
from inhomk.simulate import MaternParams, simulate_matern, simulate_poisson
from inhomk.study import (
    _CELL_STRIDE,
    _CHUNK,
    _SCAN_POINTS,
    StudyConfig,
    _run_cell,
    empirical_cov_oracle,
    rejection_study,
)

SMALL = dict(
    process="poisson",
    rho=200.0,
    sides=(1.0,),
    modes=("estimated", "known"),
    replicates=150,
    sample_size=1000,
    seed=101,
)


def test_study_deterministic():
    a = rejection_study(StudyConfig(**SMALL))
    b = rejection_study(StudyConfig(**SMALL))
    assert [c.rejections for c in a.cells] == [c.rejections for c in b.cells]


def test_study_workers_do_not_change_result():
    # at least three chunks, so 2 and 3 workers split them across processes;
    # every cell but its timing must come out the same
    cfg = {**SMALL, "replicates": 600}
    assert cfg["replicates"] > 2 * _CHUNK
    cells = [
        [replace(c, wall_time=0.0) for c in rejection_study(StudyConfig(**cfg, workers=w)).cells]
        for w in (1, 2, 3)
    ]
    assert cells[0] == cells[1] == cells[2]


def test_study_alpha_one_always_rejects():
    cfg = StudyConfig(**{**SMALL, "alpha": 1.0, "modes": ("estimated",)})
    res = rejection_study(cfg)
    assert res.cells[0].rejection_rate == 1.0


@pytest.mark.parametrize("dim", [2, 3])
def test_study_matches_gof_test(dim):
    # the harness's shared-table fast path gives the same decisions as gof_test
    cfg = StudyConfig(**SMALL, dim=dim)
    res = rejection_study(cfg)
    for mode in cfg.modes:
        rejections = 0
        gof_cfg = GofConfig(
            R=cfg.R,
            grid_size=cfg.grid_size,
            alpha=cfg.alpha,
            mode=mode,
            sample_size=cfg.sample_size,
            seed=cfg.seed,
        )
        for rep in range(cfg.replicates):
            pat = simulate_poisson(cfg.rho, Window(dim, 1.0), stream(cfg.seed, rep))
            rejections += gof_test(pat, gof_cfg).reject
        assert rejections == res.cell(1.0, mode).rejections


@pytest.mark.parametrize("process", ["poisson", "matern"])
def test_gof_test_decides_like_the_study(monkeypatch, process):
    # Each replicate's statistic and critical value in the study are bitwise
    # those of gof_test on the same pattern, in both modes: one decision path.
    seen = {"statistic": [], "estimated": [], "known": []}

    def statistic(*args):
        seen["statistic"].append(sup_distance(*args))
        return seen["statistic"][-1]

    def critical(tables, mode, alpha, estimates):
        seen[mode].append(critical_values(tables, mode, alpha, estimates))
        return seen[mode][-1]

    monkeypatch.setattr(study, "sup_distance", statistic)
    monkeypatch.setattr(study, "critical_values", critical)
    matern = MaternParams(25.0, 8.0, 0.2)
    cfg = StudyConfig(**{**SMALL, "process": process, "replicates": 100,
                         "matern": matern if process == "matern" else None})
    rejection_study(cfg)
    window = Window(2, 1.0)
    patterns = [
        simulate_poisson(cfg.rho, window, stream(cfg.seed, rep)) if process == "poisson"
        else simulate_matern(matern, window, stream(cfg.seed, rep))
        for rep in range(cfg.replicates)
    ]
    for mode in cfg.modes:
        gof_cfg = GofConfig(
            R=cfg.R, grid_size=cfg.grid_size, alpha=cfg.alpha, mode=mode,
            sample_size=cfg.sample_size, seed=cfg.seed,
        )
        results = [gof_test(p, gof_cfg) for p in patterns if len(p) > 0]
        np.testing.assert_array_equal([r.statistic for r in results], seen["statistic"][0])
        np.testing.assert_array_equal([r.critical_value for r in results], seen[mode][0])


@pytest.mark.parametrize("budget", [1, _SCAN_POINTS, 10**9])
@pytest.mark.parametrize("process", ["poisson", "matern"])
def test_scan_budget_does_not_change_curves(monkeypatch, process, budget):
    # However the point budget splits a chunk into scans (every pattern
    # alone, the default, the whole chunk at once), each replicate's curve is
    # its own pattern's k_hat curve.
    monkeypatch.setattr(study, "_SCAN_POINTS", budget)
    matern = MaternParams(25.0, 8.0, 0.2)
    cfg = StudyConfig(process=process, matern=matern if process == "matern" else None,
                      replicates=_CHUNK)
    window = Window(2, 1.0)
    grid = RadiusGrid.uniform(cfg.R, cfg.grid_size)
    counts, curves = _run_cell(cfg, 1.0, grid, 7, 0, _CHUNK, None)
    for rep in range(_CHUNK):
        if process == "poisson":
            pattern = simulate_poisson(cfg.rho, window, stream(7, rep))
        else:
            pattern = simulate_matern(matern, window, stream(7, rep))
        assert counts[rep] == len(pattern)
        np.testing.assert_array_equal(
            curves[rep], k_hat(pattern, ConstantIntensity(1.0), grid).values
        )


def test_scan_rows_close_batches_in_high_dimensions(monkeypatch):
    # In dimension 8 a point reads (3**7 + 1) / 2 neighbor rows, so a budget of
    # 60 points' rows, not the point budget, closes each scan: a scan closes
    # with the pattern that takes it to 60 points, not before. Every curve is
    # still its own pattern's.
    scans = []

    def recording_k_hat(batch, *args):
        scans.append([len(p) for p in batch])
        return k_hat(batch, *args)

    monkeypatch.setattr(study, "k_hat", recording_k_hat)
    assert scan_rows(8) == 1094
    monkeypatch.setattr(study, "_SCAN_ROWS", 60 * scan_rows(8))
    cfg = StudyConfig(rho=10.0, R=0.6, dim=8, replicates=100)
    grid = RadiusGrid.uniform(cfg.R, cfg.grid_size)
    counts, curves = _run_cell(cfg, 1.0, grid, 7, 0, 100, None)
    closed = scans[:-1]  # the last scan takes the chunk's remaining patterns
    assert len(closed) > 1
    assert all(sum(sizes[:-1]) < 60 <= sum(sizes) for sizes in closed)
    assert curves.any()
    for rep in range(100):
        pattern = simulate_poisson(cfg.rho, Window(8, 1.0), stream(7, rep))
        assert counts[rep] == len(pattern)
        np.testing.assert_array_equal(
            curves[rep], k_hat(pattern, ConstantIntensity(1.0), grid).values
        )


def test_study_replicate_streams_follow_cell_stride():
    cfg = StudyConfig(**{**SMALL, "sides": (1.0, 2.0)})
    res = rejection_study(cfg)
    # second cell replicates come from stream(seed, 1e6 + r); recompute one cell
    rejections = 0
    gof_cfg = GofConfig(
        R=cfg.R, grid_size=cfg.grid_size, alpha=cfg.alpha, mode="estimated",
        sample_size=cfg.sample_size, seed=cfg.seed,
    )
    for rep in range(cfg.replicates):
        pat = simulate_poisson(cfg.rho, Window(2, 2.0), stream(cfg.seed, 10**6 + rep))
        rejections += gof_test(pat, gof_cfg).reject
    assert rejections == res.cell(2.0, "estimated").rejections


def test_study_output_formats():
    res = rejection_study(StudyConfig(**SMALL))
    md = res.to_markdown()
    csv = res.to_csv()
    assert md.count("|") > 10 and "estimated" in md
    assert csv.splitlines()[0].startswith("process,side,mode")
    assert len(csv.splitlines()) == 1 + len(res.cells)
    header = csv.splitlines()[0].split(",")
    assert header[header.index("replicates") + 1] == "failures"
    md_header = [h.strip() for h in md.splitlines()[0].strip("|").split("|")]
    assert md_header[md_header.index("replicates") + 1] == "failures"
    for cell, row, md_row in zip(res.cells, csv.splitlines()[1:], md.splitlines()[2:]):
        assert int(row.split(",")[header.index("failures")]) == cell.failures
        md_cells = [v.strip() for v in md_row.strip("|").split("|")]
        assert int(md_cells[md_header.index("failures")]) == cell.failures


def test_study_failed_cell_is_value_error_naming_side_and_counts():
    # rho |W| = 2: about e^-2 of the replicates are empty, far above the 1% cap
    config = StudyConfig(rho=2.0, sides=(1.0,), replicates=100, sample_size=100, grid_size=5)
    message = "side 1: 12 of 100 replicates failed (empty patterns), above the 1% cap"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        rejection_study(config)


def test_study_config_validation():
    with pytest.raises(ValueError, match="matern"):
        StudyConfig(process="matern", matern=None)
    with pytest.raises(ValueError, match="replicates"):
        StudyConfig(replicates=50)
    with pytest.raises(ValueError, match="mode"):
        StudyConfig(modes=("bogus",))
    for sample_size in (99, 0, -5):
        with pytest.raises(ValueError, match="^sample_size must be >= 100$"):
            StudyConfig(sample_size=sample_size)
    for grid_size in (1, 0, -2):
        with pytest.raises(ValueError, match="^grid_size must be >= 2$"):
            StudyConfig(grid_size=grid_size)
    assert StudyConfig(sample_size=100, grid_size=2).grid_size == 2
    for alpha in (-0.1, 0.0, 1.5):
        with pytest.raises(ValueError, match="alpha"):
            StudyConfig(alpha=alpha)
    for dim in (0, -1):
        with pytest.raises(ValueError, match="dimension must be >= 1"):
            StudyConfig(dim=dim)
    for dim in (13, 10**9):
        with pytest.raises(ValueError, match="dimension must be >= 1 and <= 12"):
            StudyConfig(dim=dim)
    cfg = StudyConfig.from_dict(
        {"process": "matern", "kappa": 25, "mu": 8, "rdisp": 0.2, "replicates": 100}
    )
    assert cfg.matern == MaternParams(25, 8, 0.2)
    # A Matern triple in a Poisson study would be ignored: refused. A Matern
    # study keeps accepting rho, which its simulation does not read.
    triple = {"kappa": 25, "mu": 8, "rdisp": 0.2, "replicates": 100}
    for make in (lambda: StudyConfig(process="poisson", matern=MaternParams(25, 8, 0.2)),
                 lambda: StudyConfig.from_dict(triple),
                 lambda: StudyConfig.from_dict({**triple, "process": "poisson"})):
        with pytest.raises(ValueError, match="^matern parameters apply to a matern study only$"):
            make()
    assert StudyConfig.from_dict({**triple, "process": "matern", "rho": 150.0}).rho == 150.0
    # JSON true and false are Python ints: refused wherever a number is expected
    with pytest.raises(ValueError, match="must be an integer"):
        StudyConfig.from_dict(
            {"dim": True, "seed": True, "rho": True, "sides": [True], "replicates": 100}
        )
    for key in ("replicates", "grid_size", "sample_size", "seed", "dim", "workers"):
        with pytest.raises(ValueError, match=f"^{key} must be an integer$"):
            StudyConfig.from_dict({"replicates": 100, key: True})
    for key, value, name in (("rho", True, "rho"), ("alpha", True, "alpha"), ("R", True, "R"),
                             ("sides", [1.0, True], "side"), ("kappa", True, "kappa"),
                             ("mu", True, "mu"), ("rdisp", True, "rdisp")):
        raw = {"process": "matern", "kappa": 25, "mu": 8, "rdisp": 0.2, "replicates": 100}
        with pytest.raises(ValueError, match=f"^{name} must be a number$"):
            StudyConfig.from_dict({**raw, key: value})


def test_study_replicates_stay_below_cell_stride():
    # replicate r of cell i draws stream(seed, i * stride + r): a cell of
    # stride replicates would reach the next cell's first stream
    assert StudyConfig(replicates=_CELL_STRIDE - 1, sides=(1.0, 2.0))
    for replicates in (_CELL_STRIDE, 10**6 + 5):
        with pytest.raises(ValueError, match="replicates must be at least 100 and below"):
            StudyConfig(replicates=replicates, sides=(1.0, 2.0))


def test_oracle_modes_share_replicates_and_order():
    cfg = StudyConfig(process="poisson", rho=200.0, replicates=100)
    grid = RadiusGrid.uniform(0.05, 5)  # radii 0.01, ..., 0.05
    closed = poisson_cov_matrix(grid, 200.0, "known").matrix
    cov = empirical_cov_oracle(cfg, 1.0, grid, 1500, seed=71)
    known, est = cov["known"][3, 3], cov["estimated"][3, 3]
    assert est < known
    assert known == pytest.approx(closed[3, 3], rel=0.35)
    # off-diagonal covariance against the closed form, same replicate set
    cross = cov["known"][2, 4]
    assert cross == pytest.approx(closed[2, 4], rel=0.35)


def test_oracle_validation():
    cfg = StudyConfig(process="poisson", replicates=100)
    grid = RadiusGrid.uniform(0.05, 2)
    with pytest.raises(ValueError, match="1000"):
        empirical_cov_oracle(cfg, 1.0, grid, 500, seed=1)
    # the known-intensity mode needs the true intensity: Poisson only
    matern = StudyConfig(process="matern", matern=MaternParams(25, 8, 0.2), replicates=100)
    assert set(empirical_cov_oracle(matern, 1.0, grid, 1000, seed=1)) == {"estimated"}


def test_oracle_workers_do_not_change_result():
    cfg = StudyConfig(process="poisson", rho=100.0, replicates=100)
    grid = RadiusGrid.uniform(0.05, 3)
    a = empirical_cov_oracle(cfg, 1.0, grid, 1000, seed=17)
    b = empirical_cov_oracle(replace(cfg, workers=2), 1.0, grid, 1000, seed=17)
    assert a.keys() == b.keys() == {"estimated", "known"}
    for mode in a:
        assert a[mode].shape == (3, 3)
        np.testing.assert_array_equal(a[mode], b[mode])


def test_cross_block_empirical_anchor():
    # n Cov(beta-hat, Khat(r)) for Poisson equals 2 pi r^2 (Campbell formula);
    # beta-hat and Khat are ~0.87 correlated so 4000 reps give ~2.4% MC error
    from inhomk.intensity import ConstantIntensity
    from inhomk.kstat import RadiusGrid, k_hat

    w = Window(2, 2.0)
    grid = RadiusGrid.uniform(0.05, 2)
    reps = 4000
    betas = np.empty(reps)
    ks = np.empty(reps)
    for rep in range(reps):
        pat = simulate_poisson(200.0, w, stream(515, rep))
        betas[rep] = len(pat) / w.volume
        ks[rep] = k_hat(pat, ConstantIntensity(200.0), grid).values[-1]
    cov = np.cov(betas, ks, ddof=1)[0, 1] * w.volume
    assert cov == pytest.approx(2 * np.pi * 0.05**2, rel=0.10)
    assert np.var(betas, ddof=1) * w.volume == pytest.approx(200.0, rel=0.10)


def test_oracle_error_shrinks_with_replicates():
    # quadrupling replicates roughly halves the oracle's Monte Carlo error;
    # the standard deviations are estimated over independent seed batches
    cfg = StudyConfig(process="poisson", rho=100.0, replicates=100)
    grid = RadiusGrid.uniform(0.04, 2)
    small = [
        empirical_cov_oracle(cfg, 1.0, grid, 1000, seed=200 + k)["known"][-1, -1]
        for k in range(12)
    ]
    big = [
        empirical_cov_oracle(cfg, 1.0, grid, 4000, seed=300 + k)["known"][-1, -1]
        for k in range(12)
    ]
    ratio = np.std(big, ddof=1) / np.std(small, ddof=1)
    assert ratio < 1.0
    assert 0.2 < ratio < 1.0
