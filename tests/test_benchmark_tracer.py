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
