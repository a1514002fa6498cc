"""Tests of the benchmark itself, at toy size.

    python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402
import workload  # noqa: E402  (imports mags from src/)

import mags.inference  # noqa: E402
import mags.nn  # noqa: E402
import mags.rng  # noqa: E402
import mags.topology  # noqa: E402
import mags.training  # noqa: E402

# Per-layer metric prefixes each workload's code reaches; every metric under
# them must read above zero in a traced run.
REACHED = {
    "train-desk": ("config.", "data.", "training.fit.", "training.train_epoch.",
                   "training.split_loss_and_grads.", "training.batch_delivery.",
                   "training.optimizer_step.", "training.evaluate_split.",
                   "training.save_checkpoint.", "nn."),
    "eval-sweep": ("config.", "data.", "training.load_checkpoint.", "inference.",
                   "metrics.evaluate_policies.", "metrics.count_comm.", "metrics.comm_mean.",
                   "faults.sample_realization.", "faults.markov_step.",
                   "faults.sample_comm_faults.", "nn.mlp_forward.", "nn.log_softmax."),
    "props": ("certs.", "metrics.ensemble_decomposition.", "metrics.count_comm.",
              "faults.sample_comm_faults.", "inference.gossip_round.",
              "training.split_loss_and_grads.", "nn.mlp_forward.", "nn.mlp_backward.",
              "nn.log_softmax."),
}


def run_bench(name, trace, cwd=ROOT, seed=3):
    return subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace), "--toy"],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workload.WORKLOADS)
    assert set(REACHED) == set(workload.WORKLOADS)


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_toy_run_prints_every_end_to_end_metric_with_its_unit(name):
    proc = run_bench(name, trace=0)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for m in SPEC["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0
        assert any(ln.startswith(m["name"] + " ") and ln.endswith(" " + m["unit"])
                   for ln in lines[:-1])


@pytest.mark.parametrize("name", workload.WORKLOADS)
def test_traced_run_resolves_every_per_layer_metric(name):
    proc = run_bench(name, trace=1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    for m in SPEC["per_layer"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert got["value"] != tracer.ABSENT, m["name"]
        if m["name"].startswith(REACHED[name]):
            assert got["value"] > 0, m["name"]


def test_benchmark_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = run_bench("props", trace=0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_absent_function_reads_absent_not_zero():
    t = tracer.Tracer(["inference.no_such_function", "no_such_module.f", "nn.relu"])
    with t.installed():
        mags.nn.relu(np.zeros(3))
    stats = t.stats()
    assert tracer.metric_value(stats, "inference.no_such_function.calls") == tracer.ABSENT
    assert tracer.metric_value(stats, "no_such_module.f.busy_s") == tracer.ABSENT
    assert tracer.metric_value(stats, "nn.relu.calls") == 1
    assert tracer.metric_value(stats, "nn.relu.busy_s") > 0


def test_install_rebinds_every_binding_and_restores_it():
    original = mags.nn.mlp_forward
    with tracer.Tracer(["nn.mlp_forward"]).installed():
        assert mags.nn.mlp_forward is not original
        assert mags.training.mlp_forward is mags.nn.mlp_forward
        assert mags.inference.mlp_forward is mags.nn.mlp_forward
    assert mags.nn.mlp_forward is original
    assert mags.training.mlp_forward is original
    assert mags.inference.mlp_forward is original


def test_self_time_excludes_traced_children_and_distinct_counts_inputs():
    graph = mags.topology.build_graph("complete", 4, 4)
    model = mags.inference.init_split_model(graph, [49] * 4, 10, mags.rng.stream(0, "init"))
    views = [np.random.default_rng(c).random((8, 49)) for c in range(4)]
    t = tracer.Tracer(["inference.client_encode", "nn.mlp_forward"],
                      {"inference.client_encode": 2})
    with t.installed():
        for _ in range(3):
            mags.inference.client_encode(model, views)
        mags.inference.client_encode(model, views[::-1])
    stats = t.stats()
    enc, fwd = stats["inference.client_encode"], stats["nn.mlp_forward"]
    assert enc["calls"] == 4 and fwd["calls"] == 16
    assert enc["self_s"] == pytest.approx(enc["busy_s"] - fwd["busy_s"])
    assert enc["distinct"] == 2
    assert tracer.metric_value(stats, "inference.client_encode.useful_frac") == 0.5


def test_inputs_derive_from_the_workload_seed():
    a = workload.derive_inputs("eval-sweep", 1, workload.FULL)
    assert a == workload.derive_inputs("eval-sweep", 1, workload.FULL)
    b = workload.derive_inputs("eval-sweep", 2, workload.FULL)
    assert a["dataset_seed"] != b["dataset_seed"]
    assert a["run_seeds"] != b["run_seeds"]
    assert len(workload.derive_inputs("train-desk", 1, workload.FULL)["run_seeds"]) == 2


def test_cert_seeds_are_consecutive_and_skip_false_alarms():
    gen = workload.cert_seeds(25)
    assert [next(gen) for _ in range(4)] == [25, 26, 28, 29]
    gen = workload.cert_seeds(workload.CERT_SEED_SPAN - 2)
    assert [next(gen) for _ in range(3)] == [workload.CERT_SEED_SPAN - 2,
                                             workload.CERT_SEED_SPAN - 1, 0]


@pytest.fixture(scope="module")
def eval_run(tmp_path_factory):
    work = tmp_path_factory.mktemp("eval")
    wl = workload.EvalSweep(work, workload.derive_inputs("eval-sweep", 5, workload.TOY),
                            workload.TOY)
    wl.setup()
    rc, printed = workload.cli(wl.argv(0))
    attempted, failures = wl.check(rc, printed)
    assert attempted == len(wl.cells) == 48 and failures == []
    return wl


def _replace_field(lines, row_match, column, value):
    out = []
    for ln in lines:
        fields = ln.split(",")
        if len(fields) > column and all(fields[i] == v for i, v in row_match.items()):
            fields[column] = value
        out.append(",".join(fields))
    return out


TAMPERING = {
    "schema line removed": lambda lines: lines[1:],
    "row removed": lambda lines: lines[:5] + lines[6:],
    "oracle ordering broken": lambda lines: _replace_field(
        lines, {0: "MACL", 2: "device", 3: "0.3", 4: "active_best"}, 6, "0.000000"),
    "rate-0 accuracy below floor": lambda lines: _replace_field(
        lines, {0: "VFL", 2: "communication", 3: "0", 4: "active_rand"}, 6, "0.010000"),
    "message count changed": lambda lines: _replace_field(
        lines, {0: "CD-MACL-G4", 2: "markov_comm", 3: "0.5"}, 7, "1.0000"),
}


@pytest.mark.parametrize("how", list(TAMPERING))
def test_tampered_runs_csv_counts_as_failed(eval_run, how):
    runs = eval_run.out / "runs.csv"
    good = runs.read_text()
    try:
        runs.write_text("\n".join(TAMPERING[how](good.splitlines())) + "\n")
        attempted, failures = eval_run.check(0, "")
    finally:
        runs.write_text(good)
    assert attempted == 48
    assert failures, how
    assert eval_run.check(0, "") == (48, [])


def test_changed_aggregate_csv_counts_as_failed(eval_run):
    agg = eval_run.out / "aggregate.csv"
    good = agg.read_text()
    try:
        agg.write_text(good.replace("MACL,complete,device,0.1,active_rand,",
                                    "MACL,complete,device,0.1,active_rand,0", 1))
        _, failures = eval_run.check(0, "")
    finally:
        agg.write_text(good)
    assert any("aggregate.csv" in f for f in failures)


def test_tampered_checkpoint_counts_as_failed(tmp_path):
    wl = workload.TrainDesk(tmp_path, workload.derive_inputs("train-desk", 5, workload.TOY),
                            workload.TOY)
    wl.setup()
    rc, printed = workload.cli(wl.argv(0))
    attempted, failures = wl.check(rc, printed)
    assert attempted == 3 and failures == []
    ckpt = next((tmp_path / "out" / "checkpoints").glob("MACL-*.ckpt"))
    data = bytearray(ckpt.read_bytes())
    data[-3] ^= 0x40
    ckpt.write_bytes(bytes(data))
    _, failures = wl.check(0, "")
    assert len(failures) == 1 and "MACL" in failures[0]
    ckpt.write_bytes(bytes(data[:-4]))
    _, failures = wl.check(0, "")
    assert len(failures) == 1 and "MACL" in failures[0]


def test_failed_or_missing_certificate_counts_as_failed(tmp_path):
    wl = workload.Props(tmp_path, workload.derive_inputs("props", 5, workload.TOY), workload.TOY)
    wl.argv(0)
    passing = "\n".join(f"PASS {name}: ok" for name in workload.CERTIFICATES)
    assert wl.check(0, passing) == (6, [])
    _, failures = wl.check(1, passing.replace("PASS comm-counts", "FAIL comm-counts"))
    assert len(failures) == 1 and "comm-counts" in failures[0]
    _, failures = wl.check(0, passing.replace("PASS gradient-check: ok", ""))
    assert len(failures) == 1 and "missing" in failures[0]
