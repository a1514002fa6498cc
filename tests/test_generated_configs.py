"""The determinism contracts, checked over a table of tiny configs.

``VALID`` writes out 12 tiny train + eval configs and ``INVALID`` four
that must fail at load, each an edit of a valid one. An id names the
case's grid and graph (``-ra``: random aggregators), its methods, its
train faults (``tf-``) and its eval fault kinds (``ef-``); a tag after
the number names its dataset shape. Between them the valid cases reach
every input a contract can hinge on: a 2 x 2 and a 4 x 4 grid of devices,
every graph kind, random aggregators, every eval fault kind, each train
setting (fault-free, CD-, PD-, device or communication) with and without
gossip in training, each optional ``[train]`` key, a method on every
device (K = C), Markov cells whose checkpoints of one seed take two
gossip counts past 0, two trials, an IDX dataset (``idx``), a training
pool and a test split that cross a 1024-row block (``blocks``), and a
config of one job on a pool that crosses one (``one-job``). Every test
split leaves a short last batch.

Each valid config is trained and evaluated through ``mags.cli.main`` at
one worker, again at one worker into the same directory, and at two
workers into another. The three runs must write the same checkpoints,
curves, ``aggregate.csv`` and ``runs.csv`` columns 1-8 (all but
``wall_time``). Methods that share a seed and an eval cell must draw the
same faults whatever their aggregator and gossip counts, a draw of fewer
rounds being the start of a longer one. Every ``[train]`` value must read
back from the checkpoints, and every cell must keep the policy orderings.
Each invalid config must stop at load.
"""

import copy
from dataclasses import dataclass

import numpy as np
import pytest

from mags import cli, metrics
from mags.cli import main, read_runs_csv
from mags.config import load_config
from mags.data import Dataset, synth_dataset
from mags.errors import ConfigError
from mags.training import load_checkpoint

from helpers import save_idx


@dataclass(frozen=True)
class Case:
    """One experiment config: its ``sections`` (section -> key -> value,
    the value as the checkpoint echoes it), the sizes of its training pool
    and test split, and, for an invalid config, the pattern of the
    ``ConfigError`` message its load must raise."""

    id: str
    sections: dict
    sizes: tuple
    error: str = None

    def write(self, directory):
        """Write the config, and the IDX files of an IDX dataset, into
        ``directory``; return the config's path."""
        sections = copy.deepcopy(self.sections)
        data = sections["dataset"]
        if data["kind"] == "idx":
            pool = synth_dataset(sum(self.sizes), data["classes"], data["grid"], 1, 0.3)
            for split, rows in (("train", slice(0, self.sizes[0])),
                                ("test", slice(self.sizes[0], None))):
                data[f"{split}_images"] = directory / f"{split}-images.idx"
                data[f"{split}_labels"] = directory / f"{split}-labels.idx"
                save_idx(Dataset(pool.features[rows], pool.labels[rows], data["classes"]),
                         data[f"{split}_images"], data[f"{split}_labels"])
        path = directory / "generated.ini"
        path.write_text("".join(f"[{name}]\n" + "".join(f"{k} = {v}\n" for k, v in keys.items())
                                for name, keys in sections.items()))
        return path


def invalid(id, base, error, **edits):
    """``base`` with each section's keys updated by ``edits``, a None
    value removing its key."""
    sections = copy.deepcopy(base.sections)
    for name, keys in edits.items():
        sections[name] = {k: v for k, v in {**sections[name], **keys}.items() if v is not None}
    return Case(id, sections, base.sizes, error)


VALID = [
    Case("00-complete2x2-ra-PD-2-MACL+PD-3-MACL+PD-MACL-tf-none-ef-markov_comm", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 3, "train_n": 150, "test_n": 107,
                    "seed": 7},
        "graph": {"kind": "complete", "random_aggregators": "yes", "seed": 2},
        "methods": {"list": "PD-2-MACL, PD-3-MACL, PD-MACL"},
        "train": {"epochs": 2, "batch": 16, "beta2": 0.99, "dropout_rate": 0.5,
                  "gossip_in_training": 2},
        "eval": {"fault_kinds": "markov_comm", "fault_rates": "0, 0.1, 0.5", "trials": 2},
        "run": {"seeds": "1, 5"}}, (150, 107)),
    Case("01-torus2x2-VFL-G1+2-MACL-G1+MACL-G1-tf-device0.2-ef-device+communication+markov_comm", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 5, "train_n": 145, "test_n": 51,
                    "seed": 2},
        "graph": {"kind": "torus"},
        "methods": {"list": "VFL-G1, 2-MACL-G1, MACL-G1"},
        "train": {"epochs": 2, "batch": 48, "fault_kind": "device", "fault_rate": 0.2},
        "eval": {"fault_kinds": "device, communication, markov_comm", "fault_rates": "0, 0.3",
                 "trials": 1},
        "run": {"seeds": "1, 8"}}, (145, 51)),
    Case("02-torus2x2-VFL-G2+MACL-G1+MACL-G3-tf-communication0.2-ef-markov_comm+device", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 3, "train_n": 234, "test_n": 52,
                    "seed": 4},
        "graph": {"kind": "torus"},
        "methods": {"list": "VFL-G2, MACL-G1, MACL-G3"},
        "train": {"epochs": 2, "batch": 16, "beta2": 0.99, "fault_kind": "communication",
                  "fault_rate": 0.2},
        "eval": {"fault_kinds": "markov_comm, device", "fault_rates": "0, 0.2, 0.3", "trials": 1},
        "run": {"seeds": "3, 7"}}, (234, 52)),
    Case("03-grid4x4-ra-PD-VFL-G1+7-MACL-G2+13-MACL-G1-tf-none-ef-communication+device"
         "+markov_comm", {
        "dataset": {"kind": "synthetic", "grid": 4, "classes": 5, "train_n": 252, "test_n": 104,
                    "seed": 6},
        "graph": {"kind": "grid", "random_aggregators": "yes", "seed": 4},
        "methods": {"list": "PD-VFL-G1, 7-MACL-G2, 13-MACL-G1"},
        "train": {"epochs": 1, "batch": 16},
        "eval": {"fault_kinds": "communication, device, markov_comm", "fault_rates": "0, 0.1",
                 "trials": 2},
        "run": {"seeds": "2, 3"}}, (252, 104)),
    Case("04-grid2x2-VFL-G2+2-MACL-G2+MACL-G1-tf-none-ef-communication", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 4, "train_n": 171, "test_n": 82,
                    "seed": 6},
        "graph": {"kind": "grid"},
        "methods": {"list": "VFL-G2, 2-MACL-G2, MACL-G1"},
        "train": {"epochs": 2, "batch": 32, "lr": 0.003, "gossip_in_training": 1},
        "eval": {"fault_kinds": "communication", "fault_rates": "0, 0.2", "trials": 1},
        "run": {"seeds": "2, 3"}}, (171, 82)),
    Case("05-one-job-ring4x4-ra-CD-MACL-tf-none-ef-device+communication", {
        "dataset": {"kind": "synthetic", "grid": 4, "classes": 3, "train_n": 1100, "test_n": 100,
                    "seed": 6},
        "graph": {"kind": "ring", "random_aggregators": "yes", "seed": 3},
        "methods": {"list": "CD-MACL"},
        "train": {"epochs": 1, "batch": 16, "beta1": 0.8, "beta2": 0.995,
                  "gossip_in_training": 2},
        "eval": {"fault_kinds": "device, communication", "fault_rates": "0, 0.2, 0.3",
                 "trials": 2},
        "run": {"seeds": "6"}}, (1100, 100)),
    Case("06-ring2x2-ra-VFL-G2+MACL-G2-tf-none-ef-markov_comm", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 3, "train_n": 245, "test_n": 100,
                    "seed": 2},
        "graph": {"kind": "ring", "random_aggregators": "yes", "seed": 3},
        "methods": {"list": "VFL-G2, MACL-G2"},
        "train": {"epochs": 2, "batch": 48, "lr": 0.01, "beta1": 0.8, "beta2": 0.99,
                  "dropout_rate": 0.5, "gossip_in_training": 1},
        "eval": {"fault_kinds": "markov_comm", "fault_rates": "0, 0.3, 0.5", "trials": 2},
        "run": {"seeds": "0, 2"}}, (245, 100)),
    Case("07-blocks-rgg4x4-ra-7-MACL+15-MACL-G2+15-MACL-G3-tf-none-ef-device", {
        "dataset": {"kind": "synthetic", "grid": 4, "classes": 5, "train_n": 2000, "test_n": 100,
                    "seed": 2},
        "graph": {"kind": "rgg", "rgg_radius": 1.5, "random_aggregators": "yes", "seed": 6},
        "methods": {"list": "7-MACL, 15-MACL-G2, 15-MACL-G3"},
        "train": {"epochs": 1, "batch": 48, "lr": 0.01, "beta1": 0.8},
        "eval": {"fault_kinds": "device", "fault_rates": "0, 0.2", "trials": 1},
        "run": {"seeds": "2, 3"}}, (2000, 100)),
    Case("08-idx-rgg4x4-8-MACL+MACL-tf-device0.4-ef-communication+device+markov_comm", {
        "dataset": {"kind": "idx", "grid": 4, "classes": 3},
        "graph": {"kind": "rgg", "rgg_radius": 1.5},
        "methods": {"list": "8-MACL, MACL"},
        "train": {"epochs": 1, "batch": 48, "beta1": 0.95, "beta2": 0.99, "dropout_rate": 0.2,
                  "gossip_in_training": 1, "fault_kind": "device", "fault_rate": 0.4},
        "eval": {"fault_kinds": "communication, device, markov_comm",
                 "fault_rates": "0, 0.1, 0.5", "trials": 2},
        "run": {"seeds": "1, 9"}}, (1100, 100)),
    Case("09-complete4x4-12-MACL-G1+13-MACL-tf-communication0.2-ef-device", {
        "dataset": {"kind": "synthetic", "grid": 4, "classes": 3, "train_n": 249, "test_n": 119,
                    "seed": 5},
        "graph": {"kind": "complete"},
        "methods": {"list": "12-MACL-G1, 13-MACL"},
        "train": {"epochs": 2, "batch": 16, "lr": 0.003, "dropout_rate": 0.5,
                  "gossip_in_training": 1, "fault_kind": "communication", "fault_rate": 0.2},
        "eval": {"fault_kinds": "device", "fault_rates": "0, 0.3", "trials": 1},
        "run": {"seeds": "3, 5"}}, (249, 119)),
    Case("10-ring4x4-ra-CD-VFL+CD-12-MACL+MACL-G2+MACL-G3-tf-none-ef-communication+device", {
        "dataset": {"kind": "synthetic", "grid": 4, "classes": 3, "train_n": 294, "test_n": 107,
                    "seed": 9},
        "graph": {"kind": "ring", "random_aggregators": "yes", "seed": 1},
        "methods": {"list": "CD-VFL, CD-12-MACL, MACL-G2, MACL-G3"},
        "train": {"epochs": 1, "batch": 32, "lr": 0.003, "beta1": 0.95, "dropout_rate": 0.5},
        "eval": {"fault_kinds": "communication, device", "fault_rates": "0, 0.3, 0.5",
                 "trials": 1},
        "run": {"seeds": "1, 8"}}, (294, 107)),
    Case("11-complete2x2-VFL+MACL-G1-tf-none-ef-markov_comm", {
        "dataset": {"kind": "synthetic", "grid": 2, "classes": 5, "train_n": 279, "test_n": 67,
                    "seed": 2},
        "graph": {"kind": "complete"},
        "methods": {"list": "VFL, MACL-G1"},
        "train": {"epochs": 1, "batch": 32, "lr": 0.01, "beta1": 0.95, "beta2": 0.995,
                  "dropout_rate": 0.2},
        "eval": {"fault_kinds": "markov_comm", "fault_rates": "0, 0.2", "trials": 2},
        "run": {"seeds": "1, 7"}}, (279, 67)),
]
INVALID = [
    invalid("bad-rate-without-kind-torus2x2-VFL-G1+2-MACL-G1+MACL-G1-tf-none0.4-ef-device"
            "+communication+markov_comm", VALID[1],
            r"^\[train\] train fault rate 0.4 needs a fault_kind",
            train={"fault_kind": None, "fault_rate": 0.4}),
    invalid("bad-dropout-with-train-fault-ring4x4-ra-CD-MACL+VFL-tf-device0.4-ef-communication"
            "+device", VALID[10], "CD dropout, which cannot be combined",
            methods={"list": "CD-MACL, VFL"}, train={"fault_kind": "device", "fault_rate": 0.4}),
    invalid("bad-markov-rate-rgg4x4-8-MACL+MACL-tf-device0.4-ef-markov_comm+device", VALID[8],
            "markov_comm at rate 0.05",
            eval={"fault_kinds": "markov_comm, device", "fault_rates": "0, 0.05"}),
    invalid("bad-one-method-twice-complete2x2-MACL+4-MACL-tf-none-ef-markov_comm", VALID[11],
            "'MACL' and '4-MACL' are one method", methods={"list": "MACL, 4-MACL"}),
]
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
    # (seed, fault model) -> the (K, G) and the faults of its first draw
    first_draws, paired, seed = {}, [], None
    real_evaluate, real_draw = cli.evaluate_policies, metrics.sample_realization

    def evaluate(*args, **kwargs):
        nonlocal seed
        seed = args[7]
        return real_evaluate(*args, **kwargs)

    def draw(graph, fault_model, batches, rounds, rng):
        realized = real_draw(graph, fault_model, batches, rounds, rng)
        # the entity links differ with K, and the Markov round count with G
        alive, edges = realized.alive, realized.edge_alive[..., 1:, 1:]
        kg = (len(graph.aggregators), rounds - 1)
        kg0, (alive0, edges0) = first_draws.setdefault((seed, fault_model), (kg, (alive, edges)))
        r = min(edges.shape[1], edges0.shape[1])
        assert np.array_equal(alive, alive0) and np.array_equal(edges[:, :r], edges0[:, :r]), (
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
