"""The benchmark's tracer patches inhomk by attribute name; keep those names.

``perfbench/spans.py`` replaces each ``(owner, attribute)`` of its patch table
with a timing wrapper. A renamed or removed attribute breaks only the traced
benchmark run, so this guard keeps the names in the fast suite.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_tracer_patch_table_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    table = spans._patch_table()
    assert table
    for owner, attr, name, _count in table:
        assert callable(getattr(owner, attr)), f"{owner.__name__}.{attr} ({name})"
