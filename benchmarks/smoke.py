"""Smoke test of the benchmark at tiny sizes.

    python -m pytest -q benchmarks/smoke.py

Checks that every metric BENCHMARK.json names is emitted with its unit on
every workload, that the result line keeps its format, and that a
broken output raises the failure count.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[section]}


def test_spec_names_workloads_and_metrics_the_runner_knows():
    from tracing import PER_LAYER
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert units("end_to_end") == dict(run.END_TO_END)
    assert units("per_layer") == dict(PER_LAYER)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result, detail = run.run_workload(workload, seed=3, seconds=0, trace=bool(trace),
                                      size="tiny")
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0, detail["failures"]
    assert result["correct"] is True and result["attempted"] >= 1
    want = units("per_layer" if trace else "end_to_end")
    assert {k: v["unit"] for k, v in result["metrics"].items()} == want
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    if not trace:
        assert result["metrics"]["ok_ratio"]["value"] == 1.0
    elif workload == "condense_mnist28":
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert (m["bilevel.outer_steps"], m["bilevel.inner_steps"], m["bilevel.queries"],
                m["bilevel.restarts"]) == (6, 20, 26, 2)


def test_broken_selection_raises_failures(monkeypatch):
    import condensery.cli

    select = condensery.cli.select_herding

    def duplicated(ds, ipc, *args):
        sel = select(ds, ipc, *args)
        sel.indices[1] = sel.indices[0]
        return sel
    monkeypatch.setattr(condensery.cli, "select_herding", duplicated)
    result, detail = run.run_workload("coreset_mnist28", seed=3, seconds=0, trace=False,
                                      size="tiny")
    assert result["failed"] >= 1 and result["correct"] is False
    assert result["metrics"]["ok_ratio"]["value"] < 1.0
    assert any("coreset_mnist28.checks" in f for f in detail["failures"])


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "benchmarks/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


def test_command_line_prints_result_last():
    proc = _run(ROOT, "--workload", "eval_ipc1", "--seed", "4", "--seconds", "0",
                "--trace", "0", "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] is True
    assert set(result["metrics"]) == set(units("end_to_end"))


def test_fails_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run(tmp_path, "--workload", "eval_ipc1", "--seed", "1", "--seconds", "1",
                "--trace", "0")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
