"""Self-test of the benchmark harness on its tiny seeded workload.

Runs perfbench/run.py as a benchmark runner would and checks the
result: every metric BENCHMARK.json names is printed with its unit, and the
deliberately crossing scene is counted as a failed scene.
"""
import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"),
         "--workload", "tiny", "--seed", "3", "--seconds", "1",
         "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"),
                                            (1, "per_layer")])
def test_every_metric_printed_with_unit(trace, section):
    out = _bench(trace)
    assert out.returncode == 0, out.stderr
    record = json.loads(out.stdout.splitlines()[-1])
    assert set(record) == {"correct", "attempted", "failed", "metrics"}
    assert record["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in record["metrics"].items()} == want
    for name, unit in want.items():
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$",
                         out.stdout, re.M), name
    # tiny has four scenes per pass; the crossing one must fail every time
    assert record["failed"] * 4 == record["attempted"]
    assert "  fail_share = 0.25 share" in out.stdout
    if trace == 0:
        assert "failed_scenes=crossing" in out.stdout
        assert record["metrics"]["ok_share"]["value"] == 0.75


def test_fails_without_program_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench(0, cwd=str(tmp_path))
    assert out.returncode != 0
    assert out.stdout == ""
