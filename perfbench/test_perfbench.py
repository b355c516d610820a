"""Tests of the benchmark itself, on its smoke inputs.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import subprocess
import sys
from types import SimpleNamespace

import pytest

import workloads
from run import END_TO_END, REF_NOMINAL_S, ROOT, summarize
from spans import LAYER_METRICS

sys.path.insert(0, str(ROOT / "src"))

from pavemat.quasi import quasi_rep  # noqa: E402


def bench(*argv: str) -> tuple[int, dict | None]:
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), *argv],
        capture_output=True, text=True, cwd=ROOT, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
    return proc.returncode, result


def test_hypergraphs_follow_the_seed(tmp_path):
    for h in workloads.HYPERGRAPHS + workloads.SMOKE_HYPERGRAPHS:
        obj = workloads.tame_hypergraph(h, 7)
        rep = quasi_rep(obj["d"], obj["n"], [[e - 1 for e in m] for m in obj["H"]])
        assert len(rep.members) == h.members
    a, b, c = (tmp_path / name for name in "abc")
    for path, seed in ((a, 7), (b, 7), (c, 8)):
        path.mkdir()
        workloads.write_hypergraphs("list", seed, False, path)
    for h in workloads.HYPERGRAPHS:
        assert (a / h.file).read_bytes() == (b / h.file).read_bytes()
        assert (a / h.file).read_bytes() != (c / h.file).read_bytes()


def test_every_fixed_case_has_a_golden_digest():
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    for table in (workloads.WORKLOADS, workloads.SMOKE_WORKLOADS):
        for cases in table.values():
            for case in cases:
                if case.check != "circuits":
                    assert case.name in golden["digests"], case.name
                if case.check == "count":
                    assert case.name in golden["counts"], case.name


def test_benchmark_json_matches_the_harness():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == LAYER_METRICS


def test_times_are_scaled_by_each_workers_reference_timings():
    probe = {"setup_s": 0.1, "ref_s": [0.4]}
    report = {
        "setup_s": 0.1, "peak_rss_mb": 30.0, "ref_s": [0.1, 0.3, 0.2],
        "cases": [{"family": "grid", "seconds": 3.0}, {"family": "lines", "seconds": 2.0}],
    }
    stats = summarize([probe], [report], [], SimpleNamespace(failures=[], attempted=2))
    scale = REF_NOMINAL_S / 0.2
    assert stats["grid_s"]["median"] == pytest.approx(3.0 * scale)
    assert stats["lines_s"]["median"] == pytest.approx(2.0 * scale)
    assert stats["wall_s"]["median"] == pytest.approx(5.0 * scale)
    setups = [0.1 * REF_NOMINAL_S / 0.4, 0.1 * scale]
    assert stats["setup_s"]["median"] == pytest.approx(sum(setups) / 2)
    assert stats["wall_raw_s"]["median"] == 5.0 and stats["peak_rss_mb"]["median"] == 30.0


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_smoke_run_traced(workload):
    code, result = bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke")
    assert code == 0 and result is not None
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert set(result["metrics"]) == set(LAYER_METRICS)


def test_smoke_run_untraced():
    code, result = bench("--workload", "list", "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke")
    assert code == 0 and result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == END_TO_END
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_wrong_golden_digest_fails_the_case(tmp_path):
    golden = json.loads(workloads.GOLDEN_PATH.read_text())
    golden["digests"]["tables"] = "0" * 64
    (tmp_path / "golden.json").write_text(json.dumps(golden))
    case = workloads.SMOKE_WORKLOADS["count"][2]
    spec = {
        "cases": [{"name": case.name, "argv": list(case.argv), "family": case.family,
                   "check": case.check, "export": case.export}],
        "trace": False, "run_id": "test", "work": str(tmp_path),
        "golden": str(tmp_path / "golden.json"), "spans": str(tmp_path / "spans.json"),
    }
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "worker.py")],
        input=json.dumps(spec), capture_output=True, text=True, cwd=ROOT, timeout=60,
    )
    report = json.loads(proc.stdout.splitlines()[-1])
    assert report["cases"][0]["error"] == "stdout differs from the golden digest"


def test_refuses_to_run_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for path in (ROOT / "perfbench").glob("*.py"):
        (tmp_path / "perfbench" / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "list", "--seed", "1", "--seconds", "1"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""
