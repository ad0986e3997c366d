"""``tools/bench_pairs.py`` alternates two checkouts; no benchmark is run here."""

import ast
import importlib.util
import json
import statistics
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


def test_default_is_ten_pairs(monkeypatch, tmp_path, capsys):
    # Ten pairs, the count that the 9-in-10 gain rule reads.
    tool = _load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    seeds = []
    monkeypatch.setattr(tool, "run_benchmark",
                        lambda root, workload, seed, seconds: seeds.append(seed) or canned(0.1, 0.2))
    assert tool.main([str(tmp_path), "--workload", "cov-grid50"]) == 0
    assert seeds == [seed for seed in range(500, 510) for _ in tool.SIDES]
    assert "lower in 0/10 pairs" in capsys.readouterr().out


def test_setup_pairs_alternate_probes_and_summarize_setup_s():
    tool = _load_tool()
    other = Path("/elsewhere")
    probes = {"this": [0.11, 0.10, 0.16, 0.12], "other": [0.15, 0.14, 0.13, 0.19]}
    calls, printed = [], []

    def fake_probe(root, workload, seed, seconds):
        # Each pair's sample is the median of its probes: the slow and fast
        # outliers around the canned value drop out.
        side = "this" if root == tool.ROOT else "other"
        calls.append((side, seed))
        value = probes[side][seed - 7]
        return [f"{value!r}\n", "environment\n0.9\n", f"{value!r}\n", "0.01\n", f"{value!r}\n"]

    rows = tool.run_pairs(other, "cov-grid50", 4, 7, 20.0, run=fake_probe, out=printed.append,
                          parse=tool.parse_setup)
    assert [c[0] for c in calls] == ["this", "other", "other", "this"] * 2
    assert [c[1] for c in calls] == [7, 7, 8, 8, 9, 9, 10, 10]
    assert printed[0] == "pair 1 seed 7 this: setup_s=0.11 failed=0"
    assert tool.summarize(rows) == [
        "setup_s this: median 0.115 quartiles [0.1075, 0.13] lower in 3/4 pairs",
        "setup_s other: median 0.145 quartiles [0.1375, 0.16] lower in 1/4 pairs",
    ]


@pytest.mark.parametrize("stdout", ["", "Traceback\n", "0.1\nnot seconds\n"])
def test_malformed_probe_output_is_an_error(stdout):
    with pytest.raises(ValueError, match="no seconds"):
        _load_tool().parse_setup([stdout])
    with pytest.raises(ValueError, match="no seconds"):
        _load_tool().parse_setup(["0.1\n", stdout, "0.2\n"])


def test_setup_sample_is_the_median_of_run_py_probe_count(monkeypatch):
    tool = _load_tool()
    run_py = ast.parse((TOOL.parent.parent / "perfbench" / "run.py").read_text())
    count = next(node.value.value for node in run_py.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["SETUP_PROBES"])
    assert tool.SETUP_PROBES == count > 1
    calls = []

    def fake_output(root, args):
        calls.append((root, args))
        return f"{0.1 * len(calls)!r}\n"

    monkeypatch.setattr(tool, "_python_output", fake_output)
    outputs = tool.run_setup_probe(Path("/elsewhere"), "matern-study", 11, 20.0)
    assert len(outputs) == len(calls) == count
    # one temporary directory for all probes of a sample, as run.py uses
    assert len({tuple(args) for _, args in calls}) == 1
    assert calls[0][1][:3] == ["perfbench/setup_probe.py", "matern-study", "11"]
    setup_s = tool.parse_setup(outputs)["metrics"]["setup_s"]["value"]
    assert setup_s == statistics.median(0.1 * k for k in range(1, count + 1))


def test_setup_option_runs_probes_not_benchmarks(monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    seeds = []
    monkeypatch.setattr(tool, "run_benchmark", lambda *args: pytest.fail("benchmark run"))
    monkeypatch.setattr(tool, "run_setup_probe",
                        lambda root, workload, seed, _: seeds.append(seed) or ["0.125\n"])
    argv = [str(tmp_path), "--workload", "poisson-study", "--setup", "--pairs", "3", "--seed", "5"]
    assert tool.main(argv) == 0
    assert seeds == [5, 5, 6, 6, 7, 7]
    printed = capsys.readouterr().out
    assert "setup_s this: median 0.125" in printed
    assert printed.endswith("verdict setup_s: no regression (median 0.125 -> 0.125, "
                            "lower is better, bound 0.25)\n")
    with pytest.raises(SystemExit):
        tool.main([str(tmp_path), "--workload", "poisson-study", "--setup", "--pairs", "0"])


@pytest.mark.parametrize("this, other, better, want", [
    # lower in 10/10 pairs, median gap 0.2 against OTHER's interquartile range 0.01
    ([0.80, 0.81, 0.79, 0.80, 0.82, 0.80, 0.78, 0.81, 0.80, 0.79], [1.0, 1.01, 0.99] * 3 + [1.0],
     "lower", "gain"),
    # lower in 8/10 pairs only: no gain, and no regression
    ([0.8] * 8 + [1.2, 1.2], [1.0] * 10, "lower", "no regression"),
    # a median 30% above OTHER's, with a bound of 25%
    ([1.3] * 10, [1.0] * 10, "lower", "regressed"),
    # OTHER spreads by 50% of its median: a 10% rise is unresolved ...
    ([1.1] * 10, [0.75, 1.25] * 5, "lower", "unresolved"),
    # ... unless every run here reads better than every run of OTHER
    ([0.7] * 10, [0.75, 1.25] * 5, "lower", "no regression"),
    # tight runs within the bound
    ([1.02, 0.99] * 5, [1.0, 1.01] * 5, "lower", "no regression"),
    # "higher is better" mirrors every rule
    ([0.7] * 10, [1.0] * 10, "higher", "regressed"),
    ([1.2] * 10, [1.0] * 10, "higher", "gain"),
])
def test_verdict_follows_the_four_rules(this, other, better, want):
    assert _load_tool().verdict(this, other, better, 0.25) == want


def test_verdicts_read_direction_and_bound_for_reported_metrics():
    tool = _load_tool()
    rows = [{"seed": k, "this": json.loads(canned(1.3, 0.2).splitlines()[-1]),
             "other": json.loads(canned(1.0, 0.2).splitlines()[-1])} for k in range(10)]
    end_to_end = [{"name": "wall_norm", "better": "lower", "bound": 0.25},
                  {"name": "setup_s", "better": "lower", "bound": 0.25},
                  {"name": "peak_rss_mb", "better": "lower", "bound": 0.1}]
    assert tool.verdicts(rows, end_to_end) == [
        "verdict wall_norm: regressed (median 1 -> 1.3, lower is better, bound 0.25)",
        "verdict setup_s: no regression (median 0.2 -> 0.2, lower is better, bound 0.25)",
    ]
    assert tool.verdicts(rows, [{**end_to_end[0], "bound": 0.5}])[0].startswith(
        "verdict wall_norm: no regression"
    )


def run_output(wall_norm, wall_s, reference_s, setup_s=0.1):
    # The lines perfbench/run.py prints for an untraced run, then its JSON result.
    result = json.loads(canned(wall_norm, setup_s).splitlines()[-1])
    return (f"environment {{}}\nwall_s = {wall_s!r} s, median of 12 timed calls [0.041, 0.042]\n"
            f"reference_s = {reference_s!r} s, median of 12\nsetup_s: median of 3 [0.1]\n"
            f"ops_failed_ratio = 0/24\n{json.dumps(result)}\n")


def test_raw_medians_are_parsed_from_the_run_lines():
    result = _load_tool().parse_result(run_output(0.41, 0.0412, 0.1004878))
    assert result["metrics"] == {
        "wall_norm": {"value": 0.41, "unit": "ref"},
        "setup_s": {"value": 0.1, "unit": "s"},
        "wall_s": {"value": 0.0412, "unit": "s"},
        "reference_s": {"value": 0.1004878, "unit": "s"},
    }
    # a line without its "median of" is no raw median
    assert set(_load_tool().parse_result(canned(0.1, 0.2))["metrics"]) == {"wall_norm", "setup_s"}


def test_raw_medians_are_summarized_without_a_verdict(monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    # this side's wall reads lower only because its reference work reads higher
    outputs = {"this": [(0.40, 0.040, 0.100), (0.39, 0.041, 0.105), (0.41, 0.042, 0.102)],
               "other": [(0.42, 0.040, 0.095), (0.43, 0.041, 0.095), (0.42, 0.043, 0.102)]}

    def fake_run(root, workload, seed, seconds):
        return run_output(*outputs["this" if root == tool.ROOT else "other"][seed - 3])

    monkeypatch.setattr(tool, "run_benchmark", fake_run)
    assert tool.main([str(tmp_path), "--workload", "cov-grid50", "--pairs", "3", "--seed", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("pair 1 seed 3 this: wall_norm=0.4 setup_s=0.1 wall_s=0.04 "
                        "reference_s=0.1 failed=0")
    assert "wall_s this: median 0.041 quartiles [0.0405, 0.0415] lower in 1/3 pairs" in lines
    assert "wall_s other: median 0.041 quartiles [0.0405, 0.042] lower in 0/3 pairs" in lines
    assert "reference_s this: median 0.102 quartiles [0.101, 0.1035] lower in 0/3 pairs" in lines
    assert "reference_s other: median 0.095 quartiles [0.095, 0.0985] lower in 2/3 pairs" in lines
    assert [line.split(":")[0] for line in lines if line.startswith("verdict")] == [
        "verdict wall_norm", "verdict setup_s"
    ]


def traced_output(metrics):
    # The tail of a traced perfbench/run.py run: per-layer lines, then its JSON result.
    result = {"correct": True, "attempted": 4, "failed": 0,
              "metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}}
    lines = "".join(f"{name} = {v!r} s\n" for name, v in metrics.items())
    return (f"environment {{}}\n3 traced calls, spans in .bench_out/trace.json\n{lines}"
            f"ops_failed_ratio = 0/4\n{json.dumps(result)}\n")


def test_trace_option_summarizes_per_layer_metrics_without_verdict(monkeypatch, tmp_path, capsys):
    tool = _load_tool()
    (tmp_path / "perfbench").mkdir()
    (tmp_path / "perfbench" / "run.py").write_text("")
    io_s = {"this": [0.0036, 0.0035, 0.0037], "other": [0.0075, 0.0074, 0.0076]}
    calls = []

    def fake_output(root, args):
        side = "this" if root == tool.ROOT else "other"
        calls.append((side, args))
        seed = int(args[args.index("--seed") + 1])
        return traced_output({"io.s": io_s[side][seed - 3], "qmc.points": 593536})

    monkeypatch.setattr(tool, "_python_output", fake_output)
    argv = [str(tmp_path), "--workload", "cov-grid50", "--pairs", "3", "--seed", "3"]
    assert tool.main(argv + ["--trace", "--seconds", "5"]) == 0
    assert [side for side, _ in calls] == ["this", "other", "other", "this", "this", "other"]
    assert {tuple(args[:3] + args[5:]) for _, args in calls} == {
        ("perfbench/run.py", "--workload", "cov-grid50", "--seconds", "5.0", "--trace", "1")
    }
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "pair 1 seed 3 this: io.s=0.0036 qmc.points=593536 failed=0"
    assert lines[6:] == [
        "io.s this: median 0.0036 quartiles [0.00355, 0.00365] lower in 3/3 pairs",
        "io.s other: median 0.0075 quartiles [0.00745, 0.00755] lower in 0/3 pairs",
        "qmc.points this: median 593536 quartiles [593536, 593536] lower in 0/3 pairs",
        "qmc.points other: median 593536 quartiles [593536, 593536] lower in 0/3 pairs",
    ]
    # untraced pairs still run with --trace 0; one mode at a time
    calls.clear()
    monkeypatch.setattr(tool, "_python_output", lambda root, args: calls.append(args)
                        or canned(0.1, 0.2))
    assert tool.main(argv) == 0
    assert {tuple(args[-2:]) for args in calls} == {("--trace", "0")}
    with pytest.raises(SystemExit):
        tool.main(argv + ["--trace", "--setup"])
