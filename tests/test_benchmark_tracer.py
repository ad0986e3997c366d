"""The benchmark's tracer patches inhomk by attribute name; keep those names.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its patch table
with a timing wrapper. A renamed or removed attribute breaks only the traced
benchmark run, so this guard keeps the names in the fast suite.
"""

import ast
import importlib.util
import types
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


# Imported by gof for the tracer alone; ROADMAP item 7's benchmark change
# drops their rows, then these imports.
TRACER_ONLY_IMPORTS = {("gof", "cholesky_with_jitter"), ("gof", "normal_reservoir")}


def _defined_or_called(module) -> set[str]:
    tree = ast.parse(Path(module.__file__).read_text())
    names = {
        node.func.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def test_tracer_patches_names_their_module_uses():
    # A patched module attribute that its module only imports times nothing:
    # the module must define it or call it by that name.
    unused = {
        (owner.__name__.rsplit(".", 1)[-1], attr)
        for owner, attr, _name, _count in _load_spans()._patch_table()
        if isinstance(owner, types.ModuleType) and attr not in _defined_or_called(owner)
    }
    assert unused == TRACER_ONLY_IMPORTS


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
        counts, _ = study._run_cell(config, side, grid, cell_index)
        estimates.append(set(counts[counts > 0] / study.Window(config.dim, side).volume))
    with _load_spans().Tracer() as tracer:
        study.rejection_study(config)
    assert tracer.counts["gof.critical.calls"] == sum(map(len, estimates)) > 20
    # distinct_beta counts an estimate seen in both cells once
    assert tracer.counts["gof.critical.distinct_beta"] == len(set.union(*estimates))


def test_null_tables_sample_inside_the_null_tables_span():
    # The tables draw their paths through limitlaw's patched sampler names; an
    # unpatched alias would move that time out of limitlaw.s unnoticed.
    from inhomk.gof import PoissonNullTables
    from inhomk.kstat import RadiusGrid

    with _load_spans().Tracer() as tracer:
        PoissonNullTables(RadiusGrid.uniform(0.05, 5), 200, 3)
    names = [span[0] for span in tracer.spans]
    parents = {names[span[3]] for span in tracer.spans if span[0] == "limitlaw"}
    assert names.count("limitlaw") >= 2
    assert parents == {"gof.null_tables"}
