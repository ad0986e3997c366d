"""The benchmark's tracer patches inhomk by attribute name; keep those names.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its patch table
with a timing wrapper. A renamed or removed attribute breaks only the traced
benchmark run, so this guard keeps the names in the fast suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_patch_table_resolves():
    table = _load_spans()._patch_table()
    assert table
    for owner, attr, name, _count in table:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} ({name})"


def test_constant_blocks_draw_each_variable_once():
    # Every covariance integral draws each of its variables for all strata in
    # one call: 1 (K) + 2 (decay) + 3 (t1) + 2 (t2) + 1 (sigma11) calls.
    from inhomk.asymcov import POISSON_DENSITIES, QuadratureConfig, sigma_blocks_constant
    from inhomk.kstat import RadiusGrid

    spans = _load_spans()
    with spans.Tracer() as tracer:
        blocks = sigma_blocks_constant(
            POISSON_DENSITIES, 200, RadiusGrid.uniform(0.05, 5), QuadratureConfig(samples=2**10)
        )
    assert tracer.counts["qmc.calls"] == 9
    assert tracer.counts["qmc.points"] == blocks.points == 9184


def test_study_reaches_known_critical_once_per_distinct_estimate():
    # The benchmark's gof.critical.* layer counts PoissonNullTables.known_critical
    # calls; a study that went around it would silently read zero there.
    from inhomk import study
    from inhomk.kstat import RadiusGrid

    config = study.StudyConfig(sides=(1.0, 2.0), replicates=100, sample_size=1000, seed=5)
    grid = RadiusGrid.uniform(config.R, config.grid_size)
    estimates = []  # the distinct estimates of each cell
    for cell_index, side in enumerate(config.sides):
        counts, _ = study._run_cell(config, side, grid, config.seed, cell_index, 100, None)
        estimates.append(set(counts[counts > 0] / study.Window(config.dim, side).volume))
    with _load_spans().Tracer() as tracer:
        study.rejection_study(config)
    assert tracer.counts["gof.critical.calls"] == sum(map(len, estimates)) > 20
    # distinct_beta counts an estimate seen in both cells once
    assert tracer.counts["gof.critical.distinct_beta"] == len(set.union(*estimates))
