"""Tests of the benchmark itself (not part of the library's suite).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import items  # noqa: E402
import spans  # noqa: E402
import worker  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
TRACE_METRICS = {"trace.items_per_s", "trace.untraced_items_per_s",
                 "trace.speed_ratio", "trace.unattributed_s",
                 "trace.unattributed_share", "trace.spans"}


def test_metric_names_and_units_are_valid():
    names = [w["name"] for w in SPEC["workloads"]]
    for group in ("end_to_end", "per_layer"):
        for m in SPEC[group]:
            names.append(m["name"])
            assert NAME.fullmatch(m["name"]), m
            assert UNIT.fullmatch(m["unit"]), m
            assert m["better"] in ("higher", "lower")
    assert len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} \
        in SPEC["end_to_end"]
    assert tuple(w["name"] for w in SPEC["workloads"]) == items.WORKLOADS


def test_per_layer_metrics_are_the_traced_ones():
    declared = {m["name"] for m in SPEC["per_layer"]}
    assert declared == set(spans.METRICS) | TRACE_METRICS


def _traced_pass(its):
    tracer = spans.Tracer()
    with spans.patched(tracer):
        outs = []
        for i, item in enumerate(its):
            tracer.item = i
            outs.append(items.run_item(item))
    return tracer.spans, [items.record(it, o) for it, o in zip(its, outs)]


@pytest.mark.parametrize("workload,scale", [("dense", 0.02), ("sparse", 0.02),
                                            ("audit", 1.0)])
def test_counts_repeat_and_tracing_changes_no_result(workload, scale):
    its = items.build(workload, 5, scale)
    plain = [items.record(it, items.run_item(it)) for it in its]
    first_spans, first = _traced_pass(its)
    second_spans, second = _traced_pass(its)
    assert first == plain and second == plain
    a = spans.layer_metrics(first_spans, 1.0)
    b = spans.layer_metrics(second_spans, 1.0)
    counts = spans.COUNTS + ("trace.spans",)
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["quadrature.certified_l1_calls"] > 0 and a["core.terms"] > 0
    if workload == "audit":
        assert a["kernels.flat_top_build_calls"] > 0 and a["bounds.verdicts"] > 0
    # the wrappers are gone again
    assert not hasattr(items.core.indicator_poly, "__wrapped__")
    assert not hasattr(items.quadrature.certified_l1, "__wrapped__")


def test_same_seed_same_inputs_other_seed_other_inputs():
    assert items.build("sparse", 3) == items.build("sparse", 3)
    assert items.build("sparse", 3) != items.build("sparse", 4)


def test_oracles_reject_a_wrong_enclosure():
    fejer = next(it for it in items.build("dense", 1, 0.02) if it.kind == "fejer")
    enc = items.run_item(fejer)
    assert items.check(fejer, enc) == []
    shrunk = items.quadrature.NormInterval(enc.lo * 2, enc.hi * 2, enc.riemann * 2,
                                           enc.grid, enc.degree)
    assert items.check(fejer, shrunk)


def test_tail_has_ten_items_beyond_it():
    value, pct = worker.tail([float(i) for i in range(40)])
    assert value == 29.0 and pct == 75.0


def _run_worker(seconds: str) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "worker.py"), "--mode", "run", "--workload",
         "sparse", "--seed", "2", "--seconds", seconds, "--scale", "0.02"],
        env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""}, capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert res["failed"] == 0
    return res


def test_worker_reports_every_end_to_end_value():
    res = _run_worker("0")
    assert res["attempted"] == res["pass_items"]
    for m in SPEC["end_to_end"]:
        assert res[m["name"]] > 0, m["name"]


def test_worker_stops_after_max_passes():
    res = _run_worker("1000")
    assert res["attempted"] == worker.MAX_PASSES * res["pass_items"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
