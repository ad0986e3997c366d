"""``tools/bench_collect.py`` parses benchmark output; no benchmark is run here."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_collect.py"

RESULT = {"correct": True, "attempted": 12, "failed": 0,
          "metrics": {"wall_norm": {"value": 4.1, "unit": "ref"}}}
ENV = {"nproc": 2, "git_sha": "abc123", "workers": 1}
CANNED = "\n".join([
    "environment " + json.dumps(ENV),
    "wall_s = 0.8 s, median of 12 timed calls [0.8, 0.81]",
    "ops_failed_ratio = 0/12",
    json.dumps(RESULT),
]) + "\n"


def _load_tool():
    spec = importlib.util.spec_from_file_location("bench_collect", TOOL)
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def test_parse_run_keeps_environment_and_last_line():
    assert _load_tool().parse_run(CANNED) == {"environment": ENV, "result": RESULT}


@pytest.mark.parametrize(
    "stdout, message",
    [
        (CANNED.replace("environment ", "env "), "one environment line"),
        ("environment {}\nenvironment {}\n" + json.dumps(RESULT), "one environment line"),
        (CANNED + "traceback\n", "not a JSON result"),
        ("environment {}\n" + json.dumps({"correct": True}), "no metrics"),
    ],
)
def test_parse_run_rejects_malformed_output(stdout, message):
    with pytest.raises(ValueError, match=message):
        _load_tool().parse_run(stdout)


def _fake_git(status):
    return lambda *args: "abc123" if args[0] == "rev-parse" else status


def test_collect_runs_every_benchmark_workload_once(monkeypatch):
    tool = _load_tool()
    monkeypatch.setattr(tool, "_git", _fake_git(""))
    calls = []

    def fake_run(workload):
        calls.append(workload)
        return CANNED

    out = tool.collect("label", run=fake_run)
    names = [w["name"] for w in json.loads((tool.ROOT / "BENCHMARK.json").read_text())["workloads"]]
    assert calls == names
    assert list(out["workloads"]) == names
    assert out["label"] == "label" and out["git_sha"] == "abc123" and out["seed"] == 0
    assert all(run["result"] == RESULT for run in out["workloads"].values())


@pytest.mark.parametrize("git", [_fake_git(" M src/inhomk/gof.py"), lambda *args: None])
def test_collect_refuses_uncommitted_code_or_no_checkout(monkeypatch, git):
    tool = _load_tool()
    monkeypatch.setattr(tool, "_git", git)

    def fake_run(workload):
        raise AssertionError("no workload may run")

    with pytest.raises(RuntimeError, match="commit first"):
        tool.collect("label", run=fake_run)
