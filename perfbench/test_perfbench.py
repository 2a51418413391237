"""Tests of the benchmark itself. Run from the repository root:

    python3 -m pytest perfbench

Each workload runs at the tiny scale, untraced and traced; the output must
parse and name exactly the metrics BENCHMARK.json lists, with their units.
"""

from __future__ import annotations

import json
import math
import re
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import tracing  # noqa: E402
from workloads import SCALES, WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def run_bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *map(str, args)], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_follows_its_format():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert SPEC["command"][0] == "python3" and SPEC["paths"] == ["perfbench"]
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert all(set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
               for w in SPEC["workloads"])
    assert all(set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
               for m in SPEC["end_to_end"])
    assert all(set(m) == {"name", "unit", "better"} for m in SPEC["per_layer"])
    metrics = SPEC["end_to_end"] + SPEC["per_layer"]
    names = WORKLOAD_NAMES + [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(n) for n in names)
    assert all(UNIT.fullmatch(m["unit"]) and m["better"] in ("lower", "higher")
               for m in metrics)
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_spec_names_the_workloads_the_code_runs():
    assert WORKLOAD_NAMES == list(WORKLOADS)
    assert all(set(scale) == set(WORKLOADS) for scale in SCALES.values())


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOAD_NAMES)
def test_tiny_run_prints_every_metric(workload, trace):
    proc = run_bench("--workload", workload, "--seed", 3, "--seconds", 0.5,
                     "--trace", trace, "--scale", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    assert all(line.startswith("#") for line in lines[:-1])
    assert any(line.startswith("# machine ") for line in lines)
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1, proc.stderr
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"])
        if not trace:
            assert got["value"] > 0, m["name"]


def test_inputs_follow_the_seed(tmp_path):
    import twistnet

    def inputs(seed, name):
        d = tmp_path / f"{name}-{seed}-{len(list(tmp_path.iterdir()))}"
        d.mkdir()
        WORKLOADS[name](twistnet, SCALES["tiny"][name], seed, d).setup()
        return {p.name: p.read_bytes() for p in sorted(d.rglob("*.csv"))}

    for name in WORKLOADS:
        first = inputs(5, name)
        assert first and inputs(5, name) == first
        assert inputs(6, name) != first


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    (tmp_path / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, tmp_path / "perfbench")
    proc = run_bench("--workload", WORKLOAD_NAMES[0], "--seed", 0, "--seconds", 1,
                     "--trace", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_self_time_subtracts_direct_children():
    dur = np.array([10, 4, 3, 1])
    parent = np.array([-1, 0, 0, 1])
    assert tracing.self_times(dur, parent).tolist() == [3, 3, 3, 1]
    names = ["bench.train", "train.adam_step", "x", "y"]
    assert tracing.nearest(names, parent, lambda n: n.startswith("train.")) == [-1, 1, -1, 1]


def test_every_binding_site_is_wrapped_and_restored():
    import twistnet
    from twistnet import cli, data, train

    originals = (data.load_csv, data.stratified_split)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert cli.load_csv is data.load_csv is twistnet.load_csv
        assert train.stratified_split is data.stratified_split
        assert data.load_csv is not originals[0]
        tracer.active = True
        rng = twistnet.Rng(0)
        ds = twistnet.synth_interaction(40, 3, twistnet.PRODUCT_SIGN, 0.0, rng)
        train.stratified_split(ds, (0.5, 0.5, 0.0), rng)
        tracer.active = False
        assert "data.stratified_split" in tracer.names
        assert "ndcore.Rng.permutation" in tracer.names
    finally:
        tracer.uninstall()
    assert (data.load_csv, data.stratified_split) == originals
    assert cli.load_csv is originals[0] and train.stratified_split is originals[1]
