"""The determinism contracts, checked over generated configs.

``helpers.generated_configs`` draws tiny experiment configs from a fixed
seed. Each valid one is trained and evaluated through ``mags.cli.main`` at
one worker, again at one worker into the same directory, and at two
workers into another. The three runs must write the same checkpoints,
curves, ``aggregate.csv`` and ``runs.csv`` columns 1-8 (all but
``wall_time``). Methods that share a seed and an eval cell must draw the
same first-round faults whatever their aggregator and gossip counts. Every
``[train]`` value must read back from the checkpoints, and every cell must
keep the policy orderings. Each invalid config must stop at load.
"""

import numpy as np
import pytest

from mags import cli, metrics
from mags.cli import main, read_runs_csv
from mags.config import CONFIG_KEYS, load_config
from mags.data import SYNTH_CHUNK_ROWS
from mags.errors import ConfigError
from mags.topology import GRAPH_KINDS
from mags.training import load_checkpoint

from helpers import EVAL_FAULT_KINDS, generated_configs

CASES = generated_configs()
VALID = [case for case in CASES if case.error is None]
INVALID = [case for case in CASES if case.error is not None]
# a [train] key's name in the checkpoint's config line, where it differs
ECHO = {"batch": "batch_size", "gossip_in_training": "gossip_rounds",
        "fault_kind": "train_fault_kind", "fault_rate": "train_fault_rate"}


def run(config, out, workers) -> dict:
    """Train and evaluate; return every output that must not depend on a
    rerun or on the worker count, by file name."""
    for command in ("train", "eval"):
        argv = [command, "--config", str(config), "--out", str(out), "--workers", str(workers)]
        assert main(argv) == 0
    outputs = {p.name: p.read_bytes() for p in (out / "checkpoints").iterdir()}
    outputs["aggregate.csv"] = (out / "aggregate.csv").read_bytes()
    outputs["runs.csv"] = [line.split(",")[:8]
                           for line in (out / "runs.csv").read_text().splitlines()]
    return outputs


def differing(a: dict, b: dict) -> list:
    return sorted(name for name in a.keys() | b.keys() if a.get(name) != b.get(name))


@pytest.mark.parametrize("case", VALID, ids=lambda case: case.id)
def test_generated_config_keeps_the_contracts(case, tmp_path, monkeypatch):
    config = case.write(tmp_path)
    cfg = load_config(config)
    # (seed, fault model) -> the (K, G) and first round of its first draw
    first_rounds, paired, seed = {}, [], None
    real_evaluate, real_draw = cli.evaluate_policies, metrics.sample_realization

    def evaluate(*args, **kwargs):
        nonlocal seed
        seed = args[7]
        return real_evaluate(*args, **kwargs)

    def draw(graph, fault_model, batches, rounds, rng):
        realized = real_draw(graph, fault_model, batches, rounds, rng)
        # the entity links differ with K, and later Markov rounds with G
        first = (realized.alive, realized.edge_alive[:, 0, 1:, 1:])
        kg = (len(graph.aggregators), rounds - 1)
        kg0, first0 = first_rounds.setdefault((seed, fault_model), (kg, first))
        assert all(np.array_equal(a, b) for a, b in zip(first, first0)), (
            f"seed {seed}, {fault_model}: (K, G) = {kg} drew other faults than {kg0}")
        paired.append(kg[0] != kg0[0])
        return realized

    with monkeypatch.context() as m:
        m.setattr(cli, "evaluate_policies", evaluate)
        m.setattr(metrics, "sample_realization", draw)
        serial = run(config, tmp_path / "a", 1)
    if len({spec.aggregator_count for spec in cfg.method_specs()}) > 1:
        assert any(paired)
    assert differing(serial, run(config, tmp_path / "a", 1)) == []  # a rerun, in place
    assert differing(serial, run(config, tmp_path / "b", 2)) == []

    for path in (tmp_path / "a" / "checkpoints").glob("*.ckpt"):
        echoed = load_checkpoint(path).config
        for key, value in case.sections["train"].items():
            assert echoed[ECHO.get(key, key)] == value, (path.name, key)

    # policies are scored in expectation, where best >= rand >= worst holds
    # per sample; at rate 0 with every device aggregating, all are active
    # and any_rand is the same number as active_rand
    every_device = {s.name for s in cfg.method_specs() if s.aggregator_count == cfg.device_count}
    cells = {}
    for method, _, kind, rate, policy, run_seed, accuracy, *_ in read_runs_csv(
            tmp_path / "a" / "runs.csv"):
        cells.setdefault((method, kind, rate, run_seed), {})[policy] = accuracy
    for (method, _, rate, _), acc in cells.items():
        if acc["active_best"] == "nan":  # one aggregator
            continue
        best, rand, worst = (float(acc[p]) for p in ("active_best", "active_rand",
                                                      "active_worst"))
        assert best >= rand >= worst, (method, rate, acc)
        if method in every_device and float(rate) == 0:
            assert acc["any_rand"] == acc["active_rand"], (method, acc)


@pytest.mark.parametrize("case", INVALID, ids=lambda case: case.id)
def test_generated_invalid_config_stops_at_load(case, tmp_path, capsys):
    config = case.write(tmp_path)
    with pytest.raises(ConfigError, match=case.error):
        load_config(config)
    out = tmp_path / "out"
    assert main(["train", "--config", str(config), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()


def test_generated_configs_reach_every_contract_input():
    assert len(VALID) >= 10 and len(INVALID) >= 4
    assert any(case.id.startswith("bad-rate-without-kind") for case in INVALID)
    sections = [case.sections for case in VALID]
    assert {s["dataset"]["grid"] for s in sections} == {2, 4}
    assert {s["graph"]["kind"] for s in sections} == set(GRAPH_KINDS)
    assert any("random_aggregators" in s["graph"] for s in sections)
    assert {k for s in sections for k in s["eval"]["fault_kinds"].split(", ")} == set(
        EVAL_FAULT_KINDS)
    # each train setting, with and without gossip in training
    dropout = {"CD-": "CD-", "PD-": "PD-"}  # the first method's prefix, if any
    settings = {(s["train"].get("fault_kind", dropout.get(s["methods"]["list"][:3], "none")),
                 "gossip_in_training" in s["train"]) for s in sections}
    assert settings == {(setting, gossip) for gossip in (False, True)
                        for setting in ("none", "CD-", "PD-", "device", "communication")}
    assert any(case.sections["eval"]["trials"] == 2
               and case.sizes[1] % case.sections["train"]["batch"] for case in VALID)
    assert {key for s in sections for key in s["train"]} == set(CONFIG_KEYS["train"])
    assert any(name.split("-G")[0] in ("MACL", "CD-MACL", "PD-MACL")  # K = C
               for s in sections for name in s["methods"]["list"].split(", "))
    assert any(s["dataset"]["kind"] == "idx" for s in sections)
    # a synthetic test split and a one-job training pool of two blocks or more
    assert any(case.sections["dataset"]["kind"] == "synthetic"
               and case.sizes[0] // SYNTH_CHUNK_ROWS < (sum(case.sizes) - 1) // SYNTH_CHUNK_ROWS
               for case in VALID)
    one_job = [case.sizes[0] for case in VALID
               if "," not in case.sections["methods"]["list"] + case.sections["run"]["seeds"]]
    assert max(one_job, default=0) > SYNTH_CHUNK_ROWS
