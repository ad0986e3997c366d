"""``tools/bench_pairs.py`` alternates two checkouts; no benchmark is run here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def canned(wall_norm, setup_s, failed=0):
    result = {"correct": failed == 0, "attempted": 10, "failed": failed,
              "metrics": {"wall_norm": {"value": wall_norm, "unit": "ref"},
                          "setup_s": {"value": setup_s, "unit": "s"}}}
    return "environment {}\nwall_s = 0.02 s\n" + json.dumps(result) + "\n"


def test_pairs_alternate_order_with_fresh_seeds_and_summarize():
    tool = _load_tool()
    other = Path("/elsewhere")
    walls = {"this": [0.13, 0.12, 0.14, 0.10], "other": [0.16, 0.15, 0.13, 0.17]}
    calls, printed = [], []

    def fake_run(root, workload, seed, seconds):
        side = "this" if root == tool.ROOT else "other"
        calls.append((side, workload, seed, seconds))
        k = seed - 40
        return canned(walls[side][k], 0.2 if side == "this" else 0.3)

    rows = tool.run_pairs(other, "inhom-analysis", 4, 40, 6.0, run=fake_run, out=printed.append)
    assert [c[0] for c in calls] == ["this", "other", "other", "this"] * 2
    assert [c[2] for c in calls] == [40, 40, 41, 41, 42, 42, 43, 43]
    assert {c[1] for c in calls} == {"inhom-analysis"} and {c[3] for c in calls} == {6.0}
    assert [row["seed"] for row in rows] == [40, 41, 42, 43]
    assert printed[0] == "pair 1 seed 40 this: wall_norm=0.13 setup_s=0.2 failed=0"
    assert len(printed) == 8
    summary = tool.summarize(rows)
    assert summary[0] == "wall_norm this: median 0.125 quartiles [0.115, 0.1325] lower in 3/4 pairs"
    assert summary[1] == "wall_norm other: median 0.155 quartiles [0.145, 0.1625] lower in 1/4 pairs"
    assert summary[2].startswith("setup_s this: median 0.2 quartiles [0.2, 0.2] lower in 4/4")
    assert summary[3].endswith("lower in 0/4 pairs")


def test_one_pair_has_its_value_as_both_quartiles():
    tool = _load_tool()
    rows = [{"seed": 1, "this": json.loads(canned(0.1, 0.2).splitlines()[-1]),
             "other": json.loads(canned(0.1, 0.2).splitlines()[-1])}]
    assert tool.summarize(rows)[0] == (
        "wall_norm this: median 0.1 quartiles [0.1, 0.1] lower in 0/1 pairs"
    )


@pytest.mark.parametrize("stdout", ["", "environment {}\n", "environment {}\n{\"correct\": true}\n"])
def test_malformed_run_output_is_an_error(stdout):
    with pytest.raises(ValueError, match="no JSON result"):
        _load_tool().parse_result(stdout)


def test_failed_call_sets_exit_status(monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    monkeypatch.setattr(tool, "run_benchmark",
                        lambda root, *args: canned(0.1, 0.2, failed=int(root != tool.ROOT)))
    assert tool.main([str(tmp_path), "--workload", "cov-grid50", "--pairs", "2"]) == 1
    assert "failed=1" in capsys.readouterr().out
    monkeypatch.setattr(tool, "run_benchmark", lambda *args: canned(0.1, 0.2))
    assert tool.main([str(tmp_path), "--workload", "cov-grid50", "--pairs", "1"]) == 0
