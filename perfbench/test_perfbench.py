"""Smoke test of the benchmark itself, at ``--size tiny``.

Run from the repository root::

    python -m pytest -q perfbench/test_perfbench.py
"""

from __future__ import annotations

import gzip
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAME = re.compile(r"[A-Za-z0-9_.-]+")

sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402


def _run(workload: str, trace: int, spans_dir: Path, cwd: Path = ROOT):
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0",
         "--trace", str(trace), "--size", "tiny", "--spans-dir", str(spans_dir)],
        capture_output=True, text=True, timeout=170, cwd=str(cwd),
    )


def _digest(stdout: str) -> str:
    match = re.search(r"^  model\.digest = ([0-9a-f]{16}) ", stdout, re.M)
    assert match, stdout
    return match.group(1)


@pytest.mark.parametrize("workload", bench.WORKLOADS)
def test_tiny_workload(workload: str, tmp_path: Path) -> None:
    plain = _run(workload, 0, tmp_path)
    traced = _run(workload, 1, tmp_path)
    results = {}
    for trace, proc, expected in (
        (0, plain, bench.END_TO_END), (1, traced, bench.PER_LAYER)
    ):
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0, proc.stdout
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [name for name, _u, _b in expected]
        for name, unit, _better in expected:
            assert NAME.fullmatch(name), name
            assert result["metrics"][name]["unit"] == unit
            # Printed by name with its unit before the JSON line, too.
            assert re.search(
                rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$",
                proc.stdout, re.M,
            ), name
        results[trace] = result["metrics"]

    # The wrappers are observer-neutral: same simulated outputs.
    assert _digest(plain.stdout) == _digest(traced.stdout)

    layers = results[1]
    self_sum = sum(
        entry["value"] for name, entry in layers.items()
        if name.endswith(".self_s") or name == "sort.validate_s"
    )
    assert 0 < self_sum <= layers["trace.wall_s"]["value"]
    assert layers["simcore.engine.steps"]["value"] > 0

    spans = _load_spans(tmp_path / f"{workload}.spans.jsonl.gz")
    assert spans
    for span in spans.values():
        assert span["start"] <= span["end"]
        parent = spans.get(span["parent"])
        if parent is not None:
            assert parent["thread"] == span["thread"]
            assert parent["start"] <= span["start"]
            assert span["end"] <= parent["end"]


def _load_spans(path: Path):
    with gzip.open(path, "rt") as lines:
        spans = [json.loads(line) for line in lines]
    assert {span["run"] for span in spans} == {spans[0]["run"]}
    return {span["id"]: span for span in spans}


def test_benchmark_json_lists_the_printed_metrics() -> None:
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in doc["workloads"]] == list(bench.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        tuple(m) for m in bench.END_TO_END
    ]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        tuple(m) for m in bench.PER_LAYER
    ]


def test_without_the_program_it_fails_and_prints_no_result(tmp_path: Path) -> None:
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = _run("sort-allpairs", 0, tmp_path / "spans", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
