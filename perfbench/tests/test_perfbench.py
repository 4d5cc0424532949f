"""Tests of the benchmark itself, on the shrunken ``--smoke`` inputs.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import pytest

import compare
import harness
import run
import workloads
from spans import SpanRecorder

SPEC = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
E2E = [m["name"] for m in SPEC["end_to_end"]]
PER_LAYER = [m["name"] for m in SPEC["per_layer"]]


def _run(*args, cwd=harness.ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          capture_output=True, text=True, cwd=cwd,
                          timeout=170)


def test_benchmark_json_matches_the_code():
    assert [w["name"] for w in SPEC["workloads"]] == \
        list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for cls in workloads.WORKLOADS.values():
        assert list(cls.LEGS) == list(run.LEGS)
    assert E2E == ["setup_s", "peak_rss_mb", *run.LEGS]

    class Stub:
        setup_extras = {}

    names = run.layer_metrics(SpanRecorder(), {}, 1, Stub(), 0.0, 0.0)
    assert sorted(names) == sorted(PER_LAYER)


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
@pytest.mark.parametrize("trace", ["0", "1"])
def test_smoke_runs_every_check(workload, trace, tmp_path):
    record = tmp_path / "records.jsonl"
    out = _run("--workload", workload, "--seed", "3", "--seconds", "1",
               "--trace", trace, "--smoke", "--record", str(record))
    assert out.returncode == 0, out.stderr
    result = json.loads(out.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] > 0
    assert list(result["metrics"]) == (PER_LAYER if trace == "1" else E2E)
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())
    else:
        assert result["metrics"]["trace.spans"]["value"] > 0
    rec = json.loads(record.read_text())
    assert rec["result"] == result
    assert set(rec["fingerprint"]) >= {"nproc", "cpu_model", "blas_vendor",
                                       "blas_threads", "python", "numpy",
                                       "scipy"}


def test_wrong_expected_value_fails_only_its_operation(monkeypatch,
                                                        tmp_path):
    def one_round():
        ledger = harness.Ledger()
        wl = workloads.ScfEngines(5, True, tmp_path)
        try:
            wl.setup()
            ledger.round = 1
            wl.round(ledger)
        finally:
            wl.close()
        return ledger

    good = one_round()
    assert good.failed == 0
    monkeypatch.setattr(workloads, "RI_TOL_HA_PER_ATOM", -1.0)
    monkeypatch.setattr(workloads, "H2_TEXTBOOK_HA", -1.0)
    bad = one_round()
    # the run went on to the end: same operations, only the checked
    # ones failed
    assert [op.name for op in bad.ops] == [op.name for op in good.ops]
    assert sorted(op.name for op in bad.ops if op.failed) == \
        ["H2/hf/incore", "H2O/hf/ri", "H2O/pbe0/ri"]


def test_failed_check_prints_result_and_exits_nonzero(monkeypatch, capsys):
    monkeypatch.setattr(harness, "pin_environment", lambda: [])
    monkeypatch.setattr(workloads, "H2_TEXTBOOK_HA", -1.0)
    rc = run.main(["--workload", "scf-engines", "--seed", "1",
                   "--seconds", "1", "--smoke"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert rc == 1
    assert result["failed"] == 1 and result["correct"] is False


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _run("--workload", "scf-engines", "--seed", "1", "--seconds", "1",
               "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert out.stdout.strip() == ""


def test_self_time_subtracts_children():
    rec = SpanRecorder()
    rec.spans = [["a", 0.0, 10.0, -1], ["b", 1.0, 4.0, 0],
                 ["c", 2.0, 3.0, 1], ["b", 5.0, 6.0, 0]]
    self_s, calls = rec.self_times()
    assert self_s == {"a": 6.0, "b": 3.0, "c": 1.0}
    assert calls == {"a": 1, "b": 2, "c": 1}


def test_rename_does_not_follow_a_reused_id():
    class Engine:
        pass

    rec = SpanRecorder()
    inner, other = Engine(), Engine()
    rec.rename(inner, "md.inner_force")
    assert rec._span_name(inner, "md.force_call") == "md.inner_force"
    # ``other`` taking over the id of a freed renamed engine
    rec._renamed[id(other)] = rec._renamed.pop(id(inner))
    assert rec._span_name(other, "md.force_call") == "md.force_call"


# --- compare step ------------------------------------------------------------

FP = {"nproc": 2, "cpu_model": "x", "blas_vendor": "openblas",
      "blas_version": "1", "blas_threads": 1, "python": "3", "numpy": "2",
      "scipy": "1"}


def _records(path, values, fingerprint=FP, failed=0):
    with open(path, "w") as fh:
        for v in values:
            metrics = {m: {"value": v, "unit": "s"} for m in E2E}
            fh.write(json.dumps({
                "schema": "perfbench-record/1", "workload": "scf-engines",
                "seed": 1, "seconds": 10, "trace": 0, "smoke": False,
                "fingerprint": fingerprint,
                "result": {"correct": not failed, "attempted": 10,
                           "failed": failed, "metrics": metrics}}) + "\n")
    return str(path)


def test_compare_verdicts(tmp_path, capsys):
    base = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.00]
    parent = _records(tmp_path / "p", base)
    assert compare.main([parent, _records(tmp_path / "same", base)]) == 0
    assert "unchanged" in capsys.readouterr().out
    rows = compare.compare(
        compare.load_records(parent),
        compare.load_records(_records(tmp_path / "f", [v * 0.8
                                                        for v in base])),
        SPEC)
    assert {r["verdict"] for r in rows} == {"improved"}
    slow = _records(tmp_path / "s", [v * 1.5 for v in base], failed=1)
    assert compare.main([parent, slow]) == 1
    out = capsys.readouterr().out
    assert "worse" in out and "0/100, 10/100" in out
    # faster, but with failed operations: a gain that does not count
    fast_failing = _records(tmp_path / "ff", [v * 0.8 for v in base],
                            failed=1)
    rows = compare.compare(compare.load_records(parent),
                           compare.load_records(fast_failing), SPEC)
    assert {r["verdict"] for r in rows} == {"worse"}
    noisy = _records(tmp_path / "n", [0.5, 1.5] * 5)
    rows = compare.compare(compare.load_records(parent),
                           compare.load_records(noisy), SPEC)
    assert {r["verdict"] for r in rows} == {"unresolved"}


def test_compare_refuses_other_machines(tmp_path, capsys):
    parent = _records(tmp_path / "p", [1.0] * 3)
    other = _records(tmp_path / "o", [1.0] * 3,
                     fingerprint=dict(FP, nproc=4))
    assert compare.main([parent, other]) == 2
    assert "nproc" in capsys.readouterr().err
