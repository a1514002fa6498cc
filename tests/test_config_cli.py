import dataclasses
import multiprocessing
import os
import re
import shutil
import struct
import subprocess
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

import numpy as np
import pytest

import mags.inference
from mags import cli
from mags.cli import BLAS_THREAD_VARS, _run_jobs, main, read_runs_csv, worker_count
from mags.config import (CONFIG_KEYS, ExperimentConfig, load_config, parse_method,
                         parse_seed_list, resolve_data_path)
from mags.data import (SYNTH_CHUNK_ROWS, Dataset, client_views, read_idx, split_patches,
                       synth_dataset)
from mags.errors import ConfigError
from mags.rng import stream

from helpers import save_idx

EXAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "docs" / "example.ini"

BASE_CONFIG = """
[dataset]
kind = synthetic
grid = 2
classes = 4
train_n = 600
test_n = 200
noise = 0.2
seed = 11

[graph]
kind = complete

[methods]
list = VFL, MACL, CD-MACL-G2

[train]
epochs = 2
batch = 64
dropout_rate = 0.3

[eval]
fault_kinds = communication, device, markov_comm
fault_rates = 0, 0.5
policies = active_rand, active_best, active_worst, any_rand
trials = 1

[run]
seeds = 1, 2
out = {out}
"""


# A value other than the default for every key of CONFIG_KEYS.
NON_DEFAULT = {
    "dataset": {"kind": "idx", "grid": "2", "classes": "4", "train_n": "100", "test_n": "50",
                "noise": "0.1", "seed": "8", "train_images": "ti", "train_labels": "tl",
                "test_images": "vi", "test_labels": "vl"},
    "graph": {"kind": "ring", "rgg_radius": "1.5", "random_aggregators": "yes", "seed": "3",
              "devices": "16"},
    "methods": {"list": "MACL"},
    "train": {"epochs": "3", "batch": "32", "lr": "0.01", "beta1": "0.8", "beta2": "0.99",
              "dropout_rate": "0.2", "gossip_in_training": "1", "fault_kind": "device",
              "fault_rate": "0.2"},
    "eval": {"fault_kinds": "device", "fault_rates": "0.2", "policies": "any_rand",
             "trials": "2"},
    "run": {"seeds": "3", "out": "elsewhere"},
}
IDX_KEYS = ("train_images", "train_labels", "test_images", "test_labels")


def write_config(tmp_path, text=None):
    text = (text or BASE_CONFIG).format(out=tmp_path / "runs")
    p = tmp_path / "exp.ini"
    p.write_text(text)
    return p


class TestMethodParsing:
    def test_vanilla_names(self):
        m = parse_method("VFL", 16)
        assert (m.aggregator_count, m.dropout, m.gossip_rounds) == (1, "none", 0)
        assert m.train_name == "VFL"

    def test_full_aggregation(self):
        m = parse_method("MACL", 16)
        assert m.aggregator_count == 16

    def test_counted_aggregators(self):
        m = parse_method("4-MACL", 16)
        assert m.aggregator_count == 4

    def test_prefixes_and_gossip_suffix(self):
        m = parse_method("CD-MACL-G4", 16)
        assert (m.dropout, m.gossip_rounds, m.train_name) == ("cd", 4, "CD-MACL")
        m = parse_method("PD-VFL", 16)
        assert (m.aggregator_count, m.dropout) == (1, "pd")
        m = parse_method("PD-4-MACL-G2", 16)
        assert (m.aggregator_count, m.dropout, m.gossip_rounds) == (4, "pd", 2)

    def test_rejects_malformed_names(self):
        for bad in ("MAGS", "4-VFL", "CD-", "MACL-G", "XX-MACL", "20-MACL"):
            with pytest.raises(ConfigError):
                parse_method(bad, 16)


class TestSeedsAndPaths:
    def test_seed_range(self):
        assert parse_seed_list("1..4") == [1, 2, 3, 4]
        assert parse_seed_list("3, 5 7") == [3, 5, 7]
        with pytest.raises(ConfigError):
            parse_seed_list("")
        for bad, token in (("abc", "abc"), ("1..", "1.."), ("1, 2x", "2x")):
            with pytest.raises(ConfigError, match=f"bad seed '{re.escape(token)}'"):
                parse_seed_list(bad)

    def test_data_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("MAGS_DATA_ROOT", str(tmp_path / "root"))
        assert resolve_data_path("x.idx", tmp_path) == tmp_path / "root" / "x.idx"
        monkeypatch.delenv("MAGS_DATA_ROOT")
        assert resolve_data_path("x.idx", tmp_path) == tmp_path / "x.idx"


class TestLoadConfig:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path))
        assert cfg.device_count == 4
        assert cfg.methods == ["VFL", "MACL", "CD-MACL-G2"]
        assert cfg.fault_rates == [0.0, 0.5]
        assert cfg.seeds == [1, 2]
        assert [m.train_name for m in cfg.train_variants()] == ["VFL", "MACL", "CD-MACL"]

    def test_empty_policies_rejected(self, tmp_path):
        p = write_config(tmp_path)
        text = p.read_text().replace(
            "policies = active_rand, active_best, active_worst, any_rand",
            "policies =")
        p.write_text(text)
        with pytest.raises(ConfigError, match="policy"):
            load_config(p)

    def test_fault_rates_off_the_milli_grid_rejected(self, tmp_path):
        # rates closer than 1e-3 would share fault streams
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("fault_rates = 0, 0.5", "fault_rates = 0.1, 0.1004"))
        with pytest.raises(ConfigError, match="0.1004"):
            load_config(p)

    def test_markov_train_fault_rejected(self, tmp_path):
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace(
            "dropout_rate = 0.3", "dropout_rate = 0.3\nfault_kind = markov_comm\nfault_rate = 0.3"))
        with pytest.raises(ConfigError, match="markov_comm"):
            load_config(p)

    def test_dropout_method_with_train_fault_rejected(self, tmp_path):
        # a train fault would silently replace the CD- method's dropout
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace(
            "dropout_rate = 0.3", "dropout_rate = 0.3\nfault_kind = device\nfault_rate = 0.3"))
        with pytest.raises(ConfigError, match="'CD-MACL-G2'.*CD dropout.*'device'"):
            load_config(p)
        p.write_text(p.read_text().replace("CD-MACL-G2", "MACL-G2"))
        assert load_config(p).train_fault_kind == "device"

    @pytest.mark.parametrize("old,new,match", [
        # used to write accuracy 0 and comm_mean 0 for every eval row
        pytest.param("batch = 64", "batch = -5", "batch size -5", id="batch-negative"),
        pytest.param("batch = 64", "batch = 0", "batch size 0", id="batch-zero"),
        pytest.param("test_n = 200", "test_n = 0", "test_n = 0", id="test_n"),
        pytest.param("train_n = 600", "train_n = 0", "train_n = 0", id="train_n"),
        # a recovery probability above 1; used to fail at the first eval cell
        pytest.param("fault_rates = 0, 0.5", "fault_rates = 0, 0.05",
                     "markov_comm at rate 0.05", id="markov-rate"),
        pytest.param("epochs = 2", "epochs = -1", "epochs -1", id="epochs"),
        pytest.param("batch = 64", "batch = 64\ngossip_in_training = -2", "gossip rounds -2",
                     id="gossip_in_training"),
        pytest.param("dropout_rate = 0.3", "dropout_rate = 1.5", "dropout rate 1.5",
                     id="dropout_rate"),
        pytest.param("batch = 64", "batch = 64\nlr = 0", "learning rate 0", id="lr"),
        # an infinite rate used to pass, then end mags train at its second
        # batch with a traceback
        pytest.param("batch = 64", "batch = 64\nlr = inf", "learning rate inf", id="lr-inf"),
        pytest.param("batch = 64", "batch = 64\nbeta2 = 1", "betas 0.9, 1.0", id="beta2"),
        pytest.param("trials = 1", "trials = 0", "trials = 0", id="trials"),
        pytest.param("seeds = 1, 2", "seeds = -1, 2", "seed -1", id="run-seeds"),
        pytest.param("seed = 11", "seed = -1", r"\[dataset\] seed = -1", id="dataset-seed"),
        pytest.param("classes = 4", "classes = 1", "classes = 1", id="classes"),
        pytest.param("grid = 2", "grid = 3", "grid = 3", id="grid"),
        pytest.param("noise = 0.2", "noise = -0.2", "noise = -0.2", id="noise"),
        # a NaN noise used to train on noise-free images
        pytest.param("noise = 0.2", "noise = nan", "noise = nan", id="noise-nan"),
        pytest.param("kind = complete", "kind = complete\nrandom_aggregators = ture",
                     "random_aggregators", id="random_aggregators"),
        pytest.param("kind = complete", "kind = hex", "graph kind 'hex'", id="graph-kind"),
        pytest.param("kind = complete", "kind = rgg", "rgg graphs need a positive radius",
                     id="rgg-radius"),
        # a NaN radius used to build a graph without device edges
        pytest.param("kind = complete", "kind = rgg\nrgg_radius = nan",
                     "rgg graphs need a positive radius", id="rgg-radius-nan"),
        # unknown keys and sections used to load, leaving the default in place
        pytest.param("epochs = 2", "epoch = 2", r"unknown key \[train\] epoch;",
                     id="key-typo-epoch"),
        pytest.param("trials = 1", "trials = 1\nfault_rate = 0.3",
                     r"unknown key \[eval\] fault_rate;", id="key-typo-fault_rate"),
        pytest.param("[eval]", "[evall]", r"unknown section \[evall\]", id="section-typo"),
        pytest.param("list = VFL", "lists = VFL", r"unknown key \[methods\] lists;",
                     id="key-typo-list"),
    ])
    def test_bad_values_rejected_at_load(self, tmp_path, old, new, match):
        p = write_config(tmp_path)
        assert old in p.read_text()
        p.write_text(p.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(p)

    def test_example_config_loads(self):
        cfg = load_config(EXAMPLE_CONFIG)
        assert cfg.methods == ["VFL", "MACL", "CD-MACL", "CD-MACL-G4"]
        assert cfg.seeds == [1, 2, 3, 4]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="not found"):
            load_config(tmp_path / "nope.ini")

    def test_conflicting_device_count(self, tmp_path):
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("kind = complete", "kind = complete\ndevices = 9"))
        with pytest.raises(ConfigError, match="devices"):
            load_config(p)

    def test_known_keys_are_the_documented_keys(self):
        documented, section = {}, None
        for line in (EXAMPLE_CONFIG.parent / "config.md").read_text().splitlines():
            if line.startswith("## "):
                heading = re.match(r"## `\[(\w+)\]`", line)
                section = documented.setdefault(heading.group(1), set()) if heading else None
            elif line.startswith("| `") and section is not None:
                section.update(re.findall(r"`(\w+)`", line.split("|")[1]))
        assert documented == {name: set(keys) for name, keys in CONFIG_KEYS.items()}

    def test_every_key_names_a_field_of_the_config(self):
        names = {f.name for f in dataclasses.fields(ExperimentConfig)}
        for section, keys in CONFIG_KEYS.items():
            for key, (name, parse) in keys.items():
                assert name in names and callable(parse), (section, key)

    def test_every_key_sets_its_field(self, tmp_path, monkeypatch):
        monkeypatch.delenv("MAGS_DATA_ROOT", raising=False)
        for key in IDX_KEYS:
            (tmp_path / NON_DEFAULT["dataset"][key]).write_bytes(b"")
        default = ExperimentConfig()
        for section, keys in CONFIG_KEYS.items():
            for key, (name, _) in keys.items():
                raw = NON_DEFAULT[section][key]
                if section == "dataset" and (key == "kind" or key in IDX_KEYS):
                    # the IDX paths are read with kind = idx, which needs all four
                    text = "[dataset]\nkind = idx\n" + "".join(
                        f"{k} = {NON_DEFAULT['dataset'][k]}\n" for k in IDX_KEYS)
                else:
                    text = f"[{section}]\n{key} = {raw}\n"
                p = tmp_path / "one.ini"
                p.write_text(text)
                cfg = load_config(p)
                if name == "idx_paths":
                    assert cfg.idx_paths[key] == tmp_path / raw
                else:
                    assert getattr(cfg, name) != getattr(default, name), (section, key)

    @pytest.mark.parametrize("old,new,match", [
        pytest.param("seeds = 1, 2", "seeds = 3, 1, 3", r"\[run\] seeds repeats 3$", id="seeds"),
        pytest.param("list = VFL, MACL, CD-MACL-G2", "list = VFL, MACL, VFL",
                     r"\[methods\] list repeats 'VFL'$", id="methods"),
        pytest.param("fault_kinds = communication, device, markov_comm",
                     "fault_kinds = device, communication, device",
                     r"\[eval\] fault_kinds repeats 'device'$", id="fault_kinds"),
        # rates compare by their stream key, so 0 and 0.0 are one rate
        pytest.param("fault_rates = 0, 0.5", "fault_rates = 0, 0.5, 0.0",
                     r"\[eval\] fault_rates repeats 0.0$", id="fault_rates"),
        pytest.param("policies = active_rand, active_best, active_worst, any_rand",
                     "policies = any_rand, active_rand, any_rand",
                     r"\[eval\] policies repeats 'any_rand'$", id="policies"),
    ])
    def test_repeated_list_entries_rejected(self, tmp_path, old, new, match):
        # a repeat used to run its jobs twice and count its rows twice in aggregate.csv
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace(old, new))
        with pytest.raises(ConfigError, match=match):
            load_config(p)

    def test_empty_fault_kind_list_rejected(self, tmp_path, capsys):
        # used to run, and write a runs.csv and an aggregate.csv with no row
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("fault_kinds = communication, device, markov_comm",
                                           "fault_kinds ="))
        with pytest.raises(ConfigError, match="^fault kind list must be nonempty$"):
            load_config(p)
        for command in ("train", "eval"):
            assert main([command, "--config", str(p)]) == 2
            assert capsys.readouterr().err == "error: fault kind list must be nonempty\n"
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("methods,message", [
        ("MACL, 4-MACL", "'MACL' and '4-MACL' are one method (aggregator count 4, dropout "
         "none, gossip rounds 0)"),
        ("VFL, CD-MACL, 1-MACL", "'VFL' and '1-MACL' are one method (aggregator count 1, "
         "dropout none, gossip rounds 0)"),
        ("CD-MACL-G2, CD-4-MACL-G2", "'CD-MACL-G2' and 'CD-4-MACL-G2' are one method "
         "(aggregator count 4, dropout cd, gossip rounds 2)"),
        ("MACL-G2, MACL-G02", "'MACL-G2' and 'MACL-G02' are one method (aggregator count 4, "
         "dropout none, gossip rounds 2)"),
        ("PD-VFL, PD-1-MACL-G3", "'PD-VFL' and 'PD-1-MACL-G3' train one model (aggregator "
         "count 1, dropout pd)"),
    ])
    def test_one_method_under_two_names_rejected(self, tmp_path, methods, message):
        # both names used to train one model twice and score it twice
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("list = VFL, MACL, CD-MACL-G2", f"list = {methods}"))
        with pytest.raises(ConfigError, match=f"^{re.escape('[methods] list: ' + message)}$"):
            load_config(p)

    def test_distinct_methods_sharing_a_model_are_accepted(self, tmp_path):
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace(
            "list = VFL, MACL, CD-MACL-G2",
            "list = VFL, VFL-G1, MACL, MACL-G2, CD-MACL, PD-MACL, 2-MACL, CD-2-MACL-G1"))
        assert len(load_config(p).train_variants()) == 6

    @pytest.mark.parametrize("seeds,message", [
        ("1,1", "[run] seeds repeats 1"),
        ("abc", "bad seed 'abc' in 'abc'"),
        ("1..", "bad seed '1..' in '1..'"),
    ])
    def test_bad_seeds_flag_is_a_usage_error(self, tmp_path, capsys, seeds, message):
        # exit 2 with one error line, not a traceback and not a run
        p = write_config(tmp_path)
        assert main(["train", "--config", str(p), "--seeds", seeds]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "runs").exists()

    def test_every_listed_key_is_known_whatever_the_dataset_kind(self, tmp_path):
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("[graph]", "train_images = a\ntrain_labels = b\n"
                                           "test_images = c\ntest_labels = d\n\n[graph]")
                     .replace("kind = complete", "kind = complete\ndevices = 4"))
        cfg = load_config(p)
        assert cfg.dataset_kind == "synthetic" and cfg.idx_paths == {}

    def test_idx_paths_must_exist(self, tmp_path):
        p = write_config(tmp_path)
        text = p.read_text().replace("kind = synthetic", "kind = idx")
        text = text.replace("[graph]",
                            "train_images = a\ntrain_labels = b\n"
                            "test_images = c\ntest_labels = d\n\n[graph]")
        p.write_text(text)
        with pytest.raises(ConfigError, match="not found"):
            load_config(p)

    def test_idx_dataset_loads(self, tmp_path, monkeypatch):
        p = write_idx_config(tmp_path, 40, 24)
        monkeypatch.setenv("MAGS_DATA_ROOT", str(tmp_path))
        cfg = load_config(p)
        from mags.config import build_dataset
        train, test = build_dataset(cfg, "train"), build_dataset(cfg, "test")
        assert len(train) == 40 and len(test) == 24
        pool = synth_dataset(64, 4, 2, seed=1, noise=0.2)
        assert np.array_equal(train.labels, pool.labels[:40])
        assert np.array_equal(test.labels, pool.labels[40:])
        assert train.class_count == test.class_count == 4
        expected = client_views(pool.features[40:], split_patches(784, 2))
        assert np.max(np.abs(test.views - expected)) <= 0.5 / 255

    def test_synthetic_splits_are_the_pools_two_slices(self, tmp_path):
        from mags.config import build_dataset
        cfg = load_config(write_config(tmp_path))
        pool = synth_dataset(800, 4, 2, seed=11, noise=0.2)
        for split, rows in (("train", slice(0, 600)), ("test", slice(600, 800))):
            ds = build_dataset(cfg, split)
            assert ds.views.tobytes() == client_views(pool.features[rows],
                                                      ds.partition).tobytes()
            assert np.array_equal(ds.labels, pool.labels[rows])

    def test_test_split_draws_only_its_own_noise_blocks(self, tmp_path, monkeypatch):
        # rows [8000, 10000) lie in the 1024-row noise blocks 7, 8 and 9
        from mags import data
        from mags.config import build_dataset
        p = write_config(tmp_path)
        p.write_text(p.read_text().replace("train_n = 600", "train_n = 8000")
                     .replace("test_n = 200", "test_n = 2000"))
        cfg = load_config(p)
        requested = []

        def spy(seed, name, *subkeys):
            requested.append((seed, name, *subkeys))
            return stream(seed, name, *subkeys)

        monkeypatch.setattr(data, "stream", spy)
        assert len(build_dataset(cfg, "test")) == 2000
        assert requested == [(11, "noise", j) for j in (7, 8, 9)]


def write_idx_config(tmp_path, n_train, n_test, text=None):
    """An IDX config whose train and test files hold the first ``n_train``
    and the next ``n_test`` images of one synthetic pool: different rows,
    so a swapped split shows."""
    pool = synth_dataset(n_train + n_test, 4, 2, seed=1, noise=0.2)
    for name, rows in (("tr", slice(0, n_train)), ("te", slice(n_train, None))):
        save_idx(Dataset(pool.features[rows], pool.labels[rows], 4),
                 tmp_path / f"{name}.idx", tmp_path / f"{name}l.idx")
    p = write_config(tmp_path, text)
    text = p.read_text().replace("kind = synthetic", "kind = idx")
    text = text.replace("[graph]",
                        "train_images = tr.idx\ntrain_labels = trl.idx\n"
                        "test_images = te.idx\ntest_labels = tel.idx\n\n[graph]")
    p.write_text(text)
    return p


def test_idx_config_runs_train_then_eval_reading_only_each_commands_split(tmp_path,
                                                                          monkeypatch):
    from mags import config
    monkeypatch.delenv("MAGS_DATA_ROOT", raising=False)  # paths resolve against tmp_path
    p = write_idx_config(tmp_path, 120, 48, BASE_CONFIG.replace(
        "list = VFL, MACL, CD-MACL-G2", "list = VFL, CD-MACL-G2").replace(
        "epochs = 2", "epochs = 1").replace("seeds = 1, 2", "seeds = 1"))
    read, real_read = [], config.read_idx

    def recorded(images, labels, **kwargs):
        read.append((Path(images).name, Path(labels).name))
        return real_read(images, labels, **kwargs)

    monkeypatch.setattr(config, "read_idx", recorded)
    assert main(["train", "--config", str(p)]) == 0
    assert read == [("tr.idx", "trl.idx")]
    assert main(["eval", "--config", str(p)]) == 0
    assert read == [("tr.idx", "trl.idx"), ("te.idx", "tel.idx")]
    rows = read_runs_csv(tmp_path / "runs" / "runs.csv")
    assert len(rows) == 2 * 3 * 2 * 4  # methods x fault kinds x rates x policies
    assert all(r[6] == "nan" or 0.0 <= float(r[6]) <= 1.0 for r in rows)


@pytest.mark.parametrize("command,name,edit,message", [
    # a label at or above [dataset] classes used to crash mags train in
    # one_hot with an IndexError traceback
    ("train", "trl.idx", lambda raw: raw[:-1] + bytes([9]),
     "label 9 is not below the class count 4"),
    ("eval", "te.idx", lambda raw: raw[:-1], "expected"),
])
def test_malformed_idx_files_are_usage_errors(tmp_path, monkeypatch, capsys, command, name, edit,
                                              message):
    monkeypatch.delenv("MAGS_DATA_ROOT", raising=False)  # paths resolve against tmp_path
    p = write_idx_config(tmp_path, 40, 24)
    if command == "eval":  # eval reads the test files once the checkpoints exist
        assert main(["train", "--config", str(p)]) == 0
    path = tmp_path / name
    path.write_bytes(edit(path.read_bytes()))
    assert main([command, "--config", str(p)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ") and message in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_idx_file_with_no_images_is_a_usage_error(tmp_path, monkeypatch, capsys, command):
    # a header-only file used to run until the validation split
    # (InputError: validation split must be nonempty) or evaluation
    # (InputError: evaluation needs at least one sample): a traceback, exit 1
    monkeypatch.delenv("MAGS_DATA_ROOT", raising=False)  # paths resolve against tmp_path
    p = write_idx_config(tmp_path, 40, 24)
    if command == "eval":
        assert main(["train", "--config", str(p)]) == 0
    name = {"train": "tr", "eval": "te"}[command]
    path = tmp_path / f"{name}.idx"
    save_idx(Dataset(np.zeros((0, 784)), np.zeros(0, dtype=np.int64), 4), path,
             tmp_path / f"{name}l.idx")
    assert main([command, "--config", str(p)]) == 2
    assert capsys.readouterr().err == f"error: {path}: holds 0 images, needs at least 1\n"


@pytest.mark.parametrize("command", ["train", "eval"])
@pytest.mark.parametrize("side,payload", [(0, 0), (-1, 30)], ids=["0x0", "-1x-1"])
def test_idx_file_with_pixelless_images_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                         command, side, payload):
    # 30 images of 0 x 0 pixels made mags train die with an OverflowError
    # traceback (exit 1); 30 of (-1) x (-1) pixels trained on 1-pixel images
    monkeypatch.delenv("MAGS_DATA_ROOT", raising=False)  # paths resolve against tmp_path
    p = write_idx_config(tmp_path, 40, 30)
    if command == "eval":
        assert main(["train", "--config", str(p)]) == 0
    name = {"train": "tr", "eval": "te"}[command]
    path = tmp_path / f"{name}.idx"
    path.write_bytes(struct.pack(">iiii", 0x00000803, 30, side, side) + bytes(payload))
    (tmp_path / f"{name}l.idx").write_bytes(struct.pack(">ii", 0x00000801, 30) + bytes(30))
    assert main([command, "--config", str(p)]) == 2
    assert capsys.readouterr().err == (f"error: {path}: images of {side} x {side} pixels, "
                                       f"need at least 1 x 1\n")


class TestBuildDataset:
    """``build_dataset`` fills a split's client views block by block; they
    are bit for bit the views of the split's whole feature matrix."""

    @pytest.mark.parametrize("noise", ["0", "0.3"])
    def test_synthetic_views_match_the_whole_pools_views(self, tmp_path, noise):
        # both split boundaries fall inside a 1024-row block: the training
        # pool ends 476 rows into block 1, and the test rows end in block 2
        from mags.config import build_dataset
        cfg = load_config(write_config(tmp_path, BASE_CONFIG.replace(
            "train_n = 600", "train_n = 1500").replace("test_n = 200", "test_n = 700")
            .replace("noise = 0.2", f"noise = {noise}")))
        pool = synth_dataset(2200, 4, 2, seed=11, noise=float(noise))
        part = split_patches(784, 2)
        for split, rows in (("train", slice(0, 1500)), ("test", slice(1500, 2200))):
            ds = build_dataset(cfg, split)
            assert ds.views.flags.c_contiguous and ds.views.shape == (4, len(ds), 196)
            assert ds.views.tobytes() == client_views(pool.features[rows], part).tobytes()
            assert ds.labels.dtype == np.int64
            assert np.array_equal(ds.labels, pool.labels[rows])
            assert ds.class_count == 4 and ds.partition.grid_side == 2

    def test_idx_views_match_the_loaded_files_views(self, tmp_path, monkeypatch):
        # 2100 training images: two whole blocks and a partial third
        from mags.config import build_dataset
        monkeypatch.setenv("MAGS_DATA_ROOT", str(tmp_path))
        cfg = load_config(write_idx_config(tmp_path, 2100, 700))
        part = split_patches(784, 2)
        for split, name in (("train", "tr"), ("test", "te")):
            ds = build_dataset(cfg, split)
            pixels, labels, _ = read_idx(tmp_path / f"{name}.idx", tmp_path / f"{name}l.idx")
            assert len(ds) == len(labels) == {"train": 2100, "test": 700}[split]
            features = pixels.astype(np.float64) / 255.0
            assert ds.views.tobytes() == client_views(features, part).tobytes()
            assert np.array_equal(ds.labels, labels) and ds.class_count == 4

    @pytest.mark.parametrize("kind", ["synthetic", "idx"])
    def test_build_holds_the_views_and_a_few_blocks(self, tmp_path, monkeypatch, kind):
        # a build that makes the split's feature matrix first and then its
        # views holds both at its peak: twice the views' bytes
        from mags.config import build_dataset
        n = 6 * SYNTH_CHUNK_ROWS
        text = BASE_CONFIG.replace("train_n = 600", f"train_n = {n}").replace(
            "grid = 2", "grid = 4")
        if kind == "idx":
            monkeypatch.setenv("MAGS_DATA_ROOT", str(tmp_path))
            cfg = load_config(write_idx_config(tmp_path, n, 10, text))
        else:
            cfg = load_config(write_config(tmp_path, text))
        block = SYNTH_CHUNK_ROWS * 784 * 8
        pixels = n * 784 if kind == "idx" else 0  # the image file's bytes
        tracemalloc.start()
        try:
            ds = build_dataset(cfg, "train")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert ds.views.shape == (16, n, 49)
        # one block's features and the synthetic build's one block of scratch
        assert peak < ds.views.nbytes + pixels + 2 * block + 2**21, peak

    @pytest.mark.parametrize("kind, split", [
        ("synthetic", "train"),  # rows [0, 3000): three noise blocks, the last partial
        ("synthetic", "test"),   # rows [3000, 5000): the first block drops 952 rows
        ("idx", "train"),        # 2100 images: two whole blocks and a partial third
    ])
    def test_block_parallel_build_equals_the_in_process_build(self, tmp_path, monkeypatch,
                                                             kind, split):
        # each split is three blocks, which two processes share
        from mags import config
        text = BASE_CONFIG.replace("train_n = 600", "train_n = 3000").replace(
            "test_n = 200", "test_n = 2000")
        if kind == "idx":
            monkeypatch.setenv("MAGS_DATA_ROOT", str(tmp_path))
            cfg = load_config(write_idx_config(tmp_path, 2100, 80, text))
        else:
            cfg = load_config(write_config(tmp_path, text))
        filled = []  # the blocks the calling process fills; a worker's appends stay its own

        def in_caller(features, partition, out):
            filled.append(features.shape[0])
            return client_views(features, partition, out=out)

        monkeypatch.setattr(config, "client_views", in_caller)
        serial = config.build_dataset(cfg, split, 1)
        assert len(filled) == 3
        filled.clear()
        forked = config.build_dataset(cfg, split, 2)
        assert 1 <= len(filled) < 3
        assert multiprocessing.active_children() == []
        assert forked.views.tobytes() == serial.views.tobytes()
        assert forked.labels.tobytes() == serial.labels.tobytes()
        assert forked.views.shape == serial.views.shape and forked.class_count == 4


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """Train + eval a tiny config once; several tests inspect the artifacts."""
    tmp_path = tmp_path_factory.mktemp("pipeline")
    cfg_path = write_config(tmp_path)
    assert main(["train", "--config", str(cfg_path), "--workers", "1"]) == 0
    assert main(["eval", "--config", str(cfg_path), "--workers", "1"]) == 0
    return tmp_path, cfg_path


class TestTrainCommand:
    def test_writes_one_checkpoint_per_variant_and_seed(self, pipeline):
        tmp_path, _ = pipeline
        d = tmp_path / "runs" / "checkpoints"
        ckpts = sorted(p.name for p in d.glob("*.ckpt"))
        assert ckpts == ["CD-MACL-seed1.ckpt", "CD-MACL-seed2.ckpt",
                         "MACL-seed1.ckpt", "MACL-seed2.ckpt",
                         "VFL-seed1.ckpt", "VFL-seed2.ckpt"]

    def test_writes_training_curves(self, pipeline):
        tmp_path, _ = pipeline
        curve = tmp_path / "runs" / "checkpoints" / "VFL-seed1-curve.csv"
        lines = curve.read_text().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_accuracy"
        assert len(lines) == 1 + 2  # two epochs in the tiny config

    def test_seeds_give_distinct_checkpoints(self, pipeline):
        tmp_path, _ = pipeline
        d = tmp_path / "runs" / "checkpoints"
        assert (d / "VFL-seed1.ckpt").read_bytes() != (d / "VFL-seed2.ckpt").read_bytes()

    def test_retrain_is_idempotent(self, pipeline, tmp_path):
        _, cfg_path = pipeline
        before = (pipeline[0] / "runs" / "checkpoints" / "VFL-seed1.ckpt").read_bytes()
        assert main(["train", "--config", str(cfg_path), "--seeds", "1"]) == 0
        after = (pipeline[0] / "runs" / "checkpoints" / "VFL-seed1.ckpt").read_bytes()
        assert before == after

    def test_client_views_built_once_per_command(self, pipeline, tmp_path, monkeypatch):
        # six fits share the training pool's views; each gathers its split
        # (600 rows, all in the first 1024-row block: one block to scatter)
        from mags import config
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return real_views(*args, **kwargs)

        real_views = config.client_views
        monkeypatch.setattr(config, "client_views", counted)
        cfg_path = write_config(tmp_path)
        assert main(["train", "--config", str(cfg_path), "--workers", "1"]) == 0
        assert calls == [(600, 784)]
        for name in ("VFL-seed1.ckpt", "CD-MACL-seed2.ckpt"):
            assert ((tmp_path / "runs" / "checkpoints" / name).read_bytes()
                    == (pipeline[0] / "runs" / "checkpoints" / name).read_bytes())

    @pytest.mark.parametrize("command", ["train", "eval"])
    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_rejected(self, pipeline, capsys, command, workers):
        _, cfg_path = pipeline
        assert main([command, "--config", str(cfg_path), "--workers", workers]) == 2
        assert f"--workers must be at least 1, got {workers}" in capsys.readouterr().err


class TestEvalCommand:
    def test_row_count_is_cartesian_product(self, pipeline):
        tmp_path, _ = pipeline
        rows = read_runs_csv(tmp_path / "runs" / "runs.csv")
        # 3 methods x 3 kinds x 2 rates x 4 policies x 2 seeds
        assert len(rows) == 3 * 3 * 2 * 4 * 2

    def test_single_aggregator_oracles_are_undefined(self, pipeline):
        tmp_path, _ = pipeline
        rows = read_runs_csv(tmp_path / "runs" / "runs.csv")
        for r in rows:
            if r[0] == "VFL" and r[4] in ("active_best", "active_worst"):
                assert r[6] == "nan"
            elif r[0] == "VFL" and r[4] == "active_rand":
                assert r[6] != "nan"

    def test_aggregate_has_mean_std_and_seed_count(self, pipeline):
        tmp_path, _ = pipeline
        lines = (tmp_path / "runs" / "aggregate.csv").read_text().splitlines()
        assert lines[0] == "# schema: mags/aggregate/v1"
        assert lines[1].startswith("method,")
        data = [ln.split(",") for ln in lines[2:]]
        assert len(data) == 3 * 3 * 2 * 4
        assert all(d[8] == "2" for d in data)

    def test_missing_checkpoint_fails_cleanly(self, tmp_path):
        cfg_path = write_config(tmp_path)
        assert main(["eval", "--config", str(cfg_path)]) == 2

    @pytest.mark.parametrize("change,test_split", [
        (("classes = 4", "classes = 10"), "4, 196 and 10"),
        (("grid = 2", "grid = 4"), "16, 49 and 4"),
        (None, "4, 49 and 4"),  # IDX files of 14-pixel images
    ], ids=["classes", "clients", "patch-width"])
    def test_checkpoint_that_does_not_fit_the_test_split_is_a_usage_error(
            self, pipeline, tmp_path, capsys, change, test_split):
        # a VFL checkpoint trained on 4 classes used to score 10-class test
        # data and exit 0; one aggregator matches every graph, so only the
        # model's own shape can tell
        shutil.copytree(pipeline[0] / "runs" / "checkpoints", tmp_path / "runs" / "checkpoints")
        text = BASE_CONFIG.replace("list = VFL, MACL, CD-MACL-G2", "list = VFL")
        if change is None:
            rng = np.random.default_rng(0)
            for name in ("tr", "te"):
                save_idx(Dataset(rng.random((20, 196)), rng.integers(0, 4, 20), 4),
                         tmp_path / f"{name}.idx", tmp_path / f"{name}l.idx")
            text = text.replace("kind = synthetic", "kind = idx\ntrain_images = tr.idx\n"
                                "train_labels = trl.idx\ntest_images = te.idx\n"
                                "test_labels = tel.idx")
        else:
            text = text.replace(*change)
        cfg_path = write_config(tmp_path, text)
        assert main(["eval", "--config", str(cfg_path), "--workers", "1"]) == 2
        assert capsys.readouterr().err == (
            "error: checkpoint VFL-seed1 has 4 clients, patch width 196 and 4 classes; "
            f"the config's test split has {test_split}\n")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_damaged_checkpoint_header_is_a_usage_error(self, pipeline, tmp_path, capsys,
                                                        workers):
        # a checkpoint without its best_epoch line used to stop eval with a
        # KeyError traceback and exit 1; with two workers, the jobs of seed 2
        # are the worker's share
        cfg_path = write_config(tmp_path)
        shutil.copytree(pipeline[0] / "runs" / "checkpoints", tmp_path / "runs" / "checkpoints")
        path = tmp_path / "runs" / "checkpoints" / "MACL-seed2.ckpt"
        path.write_bytes(re.sub(rb"\nbest_epoch [^\n]*", b"", path.read_bytes()))
        assert main(["eval", "--config", str(cfg_path), "--workers", workers]) == 2
        assert capsys.readouterr().err == f"error: {path}: damaged header: no best_epoch line\n"
        assert multiprocessing.active_children() == []

    def test_determinism_modulo_wall_time(self, pipeline, tmp_path_factory):
        tmp2 = tmp_path_factory.mktemp("rerun")
        cfg2 = write_config(tmp2)
        assert main(["train", "--config", str(cfg2)]) == 0
        assert main(["eval", "--config", str(cfg2)]) == 0
        a = read_runs_csv(pipeline[0] / "runs" / "runs.csv")
        b = read_runs_csv(tmp2 / "runs" / "runs.csv")
        assert [r[:8] for r in a] == [r[:8] for r in b]  # all but wall_time
        agg_a = (pipeline[0] / "runs" / "aggregate.csv").read_bytes()
        agg_b = (tmp2 / "runs" / "aggregate.csv").read_bytes()
        assert agg_a == agg_b

    def test_inputs_built_once_per_command_and_checkpoint(self, pipeline, tmp_path,
                                                          monkeypatch):
        from mags import metrics
        shutil.copytree(pipeline[0] / "runs" / "checkpoints", tmp_path / "runs" / "checkpoints")
        calls = {"build_dataset": 0, "load_checkpoint": [], "client_encode": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                if name == "load_checkpoint":
                    calls[name].append(args[0].name)
                else:
                    calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name in calls:
            monkeypatch.setattr(cli, name, counted(name, getattr(cli, name)))

        # head passes, in total and per evaluate_policies call (one per checkpoint)
        heads = {"total": 0}
        real_head, real_eval = metrics.aggregator_head, cli.evaluate_policies

        def counted_head(*args, **kwargs):
            heads["total"] += 1
            return real_head(*args, **kwargs)

        def counted_eval(model, reps, labels, graph, faults, policies, counts, seed, **kwargs):
            before = heads["total"]
            out = real_eval(model, reps, labels, graph, faults, policies, counts, seed, **kwargs)
            key = (model.aggregators, seed)
            assert key not in heads
            heads[key] = heads["total"] - before
            return out

        monkeypatch.setattr(metrics, "aggregator_head", counted_head)
        monkeypatch.setattr(cli, "evaluate_policies", counted_eval)

        def run_eval(methods, rates="0, 0.5"):
            write_config(tmp_path, BASE_CONFIG.replace("list = VFL, MACL, CD-MACL-G2",
                                                       f"list = {methods}")
                         .replace("fault_rates = 0, 0.5", f"fault_rates = {rates}"))
            for name in calls:
                calls[name] = [] if name == "load_checkpoint" else 0
            heads.clear()
            heads["total"] = 0
            assert main(["eval", "--config", str(tmp_path / "exp.ini"), "--workers", "1"]) == 0
            return dict(heads)

        g0_only = run_eval("VFL, CD-MACL")
        with_g2 = run_eval("VFL, CD-MACL, CD-MACL-G2")
        # CD-MACL-G2 rides on CD-MACL's head passes
        assert with_g2 == g0_only
        assert calls["build_dataset"] == 1
        # CD-MACL and CD-MACL-G2 share one checkpoint per seed
        assert sorted(calls["load_checkpoint"]) == [
            "CD-MACL-seed1.ckpt", "CD-MACL-seed2.ckpt", "VFL-seed1.ckpt", "VFL-seed2.ckpt"]
        assert calls["client_encode"] == 4
        checkpoints = {(aggs, seed) for aggs in ((1,), (1, 2, 3, 4)) for seed in (1, 2)}
        # 200 test samples in batches of 64: the three rate-0 cells share two
        # passes over the 4 batches, one stacked over the 3 full ones and one
        # for the short one, and each of the three faulty cells costs at most
        # one more pass per batch size, dead aggregators or not
        assert set(with_g2) - {"total"} == checkpoints
        assert all(2 <= with_g2[key] <= 2 + 3 * 2 for key in checkpoints)
        rate_zero = run_eval("VFL, CD-MACL, CD-MACL-G2", rates="0")
        assert {key: rate_zero[key] for key in checkpoints} == dict.fromkeys(checkpoints, 2)
        rows = read_runs_csv(tmp_path / "runs" / "runs.csv")
        assert len(rows) == 3 * 3 * 1 * 4 * 2

    def test_worker_pool_matches_serial(self, pipeline, tmp_path_factory):
        tmp2 = tmp_path_factory.mktemp("workers")
        cfg2 = write_config(tmp2)
        assert main(["train", "--config", str(cfg2), "--workers", "2"]) == 0
        assert main(["eval", "--config", str(cfg2), "--workers", "2"]) == 0
        a = read_runs_csv(pipeline[0] / "runs" / "runs.csv")
        b = read_runs_csv(tmp2 / "runs" / "runs.csv")
        assert [r[:8] for r in a] == [r[:8] for r in b]
        serial = sorted((pipeline[0] / "runs" / "checkpoints").iterdir())
        assert len(serial) == 12  # a checkpoint and a curve per variant and seed
        for path in serial:
            assert (tmp2 / "runs" / "checkpoints" / path.name).read_bytes() == path.read_bytes()


def job_and_pid(jobs):
    """A ``_run_jobs`` job function: per job, the job and the process id."""
    return [(job, os.getpid()) for job in jobs]


def fail_in_caller(exc, caller, jobs):
    """A ``_run_jobs`` job function, once ``exc`` and ``caller`` are bound:
    it raises ``exc`` in the process ``caller`` and sleeps in any other,
    until it is terminated."""
    if os.getpid() == caller:
        raise exc
    time.sleep(60)
    return list(jobs)


def fail_in_worker(failure, caller, jobs):
    """A ``_run_jobs`` job function, once ``failure`` and ``caller`` are
    bound: it returns the jobs in the process ``caller`` and fails in any
    other. ``failure`` is an exception to raise, or an exit code to leave
    with before sending any results."""
    if os.getpid() == caller:
        return list(jobs)
    if isinstance(failure, int):
        os._exit(failure)
    raise failure


def openblas_threads_in_share(jobs):
    """A ``_run_jobs`` job function: per job, the process id and its OpenBLAS threads."""
    return [(os.getpid(), cli.OPENBLAS_THREADS[0]()) for _ in jobs]


def warn_in_worker(caller, jobs):
    """A ``_run_jobs`` job function, once ``caller`` is bound: it divides by
    zero outside the process ``caller``."""
    if os.getpid() != caller:
        np.log(np.zeros(1))
    return list(jobs)


@pytest.fixture
def caller_openblas_threads(monkeypatch):
    """numpy's OpenBLAS at 3 threads in the calling process, with no BLAS
    thread variable set; the count before is restored after."""
    if cli.OPENBLAS_THREADS is None:
        pytest.skip("numpy's OpenBLAS thread count cannot be set here")
    for name in BLAS_THREAD_VARS:
        monkeypatch.delenv(name, raising=False)
    get_threads, set_threads = cli.OPENBLAS_THREADS
    before = get_threads()
    set_threads(3)
    yield get_threads
    set_threads(before)


class TestWorkers:
    def test_default_is_one_worker_per_usable_core_and_job(self, monkeypatch):
        monkeypatch.setattr(cli, "OPENBLAS_THREADS", (lambda: 1, lambda threads: None))
        cores = len(os.sched_getaffinity(0))
        assert worker_count(None, 100) == cores
        assert worker_count(None, 1) == 1
        assert worker_count(3, 2) == 2
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        assert worker_count(None, 100) == 1

    def test_default_is_serial_unless_openblas_threads_can_be_set_or_the_user_set_them(
            self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
        for name in BLAS_THREAD_VARS:
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setattr(cli, "OPENBLAS_THREADS", None)  # MKL, Accelerate, ...
        assert worker_count(None, 100) == 1
        assert worker_count(3, 100) == 3  # an explicit count is the user's call
        for name in BLAS_THREAD_VARS:
            with monkeypatch.context() as env:
                env.setenv(name, "1")
                assert worker_count(None, 100) == 4
        monkeypatch.setattr(cli, "OPENBLAS_THREADS", (lambda: 1, lambda threads: None))
        assert worker_count(None, 100) == 4

    def test_every_share_runs_one_openblas_thread_and_the_caller_gets_its_count_back(
            self, caller_openblas_threads):
        seen = _run_jobs(openblas_threads_in_share, [0, 1, 2], 3)
        assert len({pid for pid, _ in seen}) == 3
        assert [threads for _, threads in seen] == [1, 1, 1]
        assert caller_openblas_threads() == 3
        with pytest.raises(ValueError, match="boom"):
            _run_jobs(partial(fail_in_worker, ValueError("boom"), os.getpid()), [0, 1], 2)
        assert caller_openblas_threads() == 3

    @pytest.mark.parametrize("name", BLAS_THREAD_VARS)
    def test_a_user_set_blas_thread_count_is_not_pinned(self, caller_openblas_threads,
                                                         monkeypatch, name):
        monkeypatch.setenv(name, "3")
        seen = _run_jobs(openblas_threads_in_share, [0, 1], 2)
        assert [threads for _, threads in seen] == [3, 3]

    def test_runtime_warning_in_a_worker_fails_the_run(self):
        # forked workers keep pytest's error::RuntimeWarning filter
        with pytest.raises(RuntimeWarning, match="divide by zero"):
            _run_jobs(partial(warn_in_worker, os.getpid()), [0, 1], 2)
        assert multiprocessing.active_children() == []

    def test_heaviest_job_goes_to_the_calling_process_and_loads_balance(self):
        assert cli.deal([1] * 7, 3) == [[0, 3, 6], [1, 4], [2, 5]]  # round-robin
        assert cli.deal([1, 1, 2], 2) == [[2], [0, 1]]
        assert cli.deal([1, 1, 2], 3) == [[2], [0], [1]]
        assert cli.deal([3, 1, 1, 1], 2) == [[0], [1, 2, 3]]
        seen = _run_jobs(job_and_pid, ["a", "b", "c"], 3, [1, 1, 2])
        assert [job for job, _ in seen] == ["a", "b", "c"]
        assert seen[2][1] == os.getpid() != seen[0][1]

    def test_eval_runs_the_checkpoint_with_most_methods_in_the_calling_process(
            self, tmp_path, monkeypatch):
        # three jobs on three workers: the calling process scores CD-MACL and
        # CD-MACL-G2, so its own profile covers gossip
        cfg_path = write_config(tmp_path, BASE_CONFIG.replace(
            "list = VFL, MACL, CD-MACL-G2", "list = VFL, MACL, CD-MACL, CD-MACL-G2").replace(
            "seeds = 1, 2", "seeds = 1"))
        assert main(["train", "--config", str(cfg_path), "--workers", "1"]) == 0
        loaded, gossip = [], []
        load, gossip_round = cli.load_checkpoint, mags.inference.gossip_round
        monkeypatch.setattr(cli, "load_checkpoint",
                            lambda path: loaded.append(Path(path).name) or load(path))
        monkeypatch.setattr(mags.inference, "gossip_round",
                            lambda *a: gossip.append(1) or gossip_round(*a))
        assert main(["eval", "--config", str(cfg_path), "--workers", "3"]) == 0
        assert loaded == ["CD-MACL-seed1.ckpt"] and gossip
        assert multiprocessing.active_children() == []

    def test_results_come_back_in_job_order(self):
        # more workers than cores, and shares of uneven length
        seen = _run_jobs(job_and_pid, list(range(9)), 4)
        assert [job for job, _ in seen] == list(range(9))
        assert len({pid for _, pid in seen}) == 4
        assert all(pid == os.getpid() for _, pid in seen[::4])
        # at most one worker per job
        seen = _run_jobs(job_and_pid, ["a", "b"], 5)
        assert [job for job, _ in seen] == ["a", "b"] and len({pid for _, pid in seen}) == 2
        assert multiprocessing.active_children() == []

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_without_fork_the_default_is_serial_and_more_is_a_usage_error(
            self, pipeline, monkeypatch, capsys, command):
        monkeypatch.setattr(cli, "CAN_FORK", False)
        assert worker_count(None, 100) == 1
        _, cfg_path = pipeline
        assert main([command, "--config", str(cfg_path), "--workers", "2"]) == 2
        assert "--workers 2 needs the fork start method" in capsys.readouterr().err

    @pytest.mark.parametrize("exc", [ConfigError("bad share"), KeyboardInterrupt()],
                             ids=["error", "interrupt"])
    def test_failing_calling_share_reaps_the_workers(self, exc):
        start = time.monotonic()
        with pytest.raises(type(exc)):
            _run_jobs(partial(fail_in_caller, exc, os.getpid()), [0, 1, 2], 3)
        assert multiprocessing.active_children() == []
        assert time.monotonic() - start < 30  # the sleeping workers were terminated

    def test_worker_error_is_raised_with_its_traceback(self):
        with pytest.raises(ValueError, match="boom") as info:
            _run_jobs(partial(fail_in_worker, ValueError("boom"), os.getpid()), [0, 1, 2], 3)
        assert "in worker 1:" in str(info.value.__cause__)
        assert "fail_in_worker" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_worker_that_dies_without_results_is_an_error(self):
        with pytest.raises(RuntimeError, match="worker 1 exited with code 3 before sending"):
            _run_jobs(partial(fail_in_worker, 3, os.getpid()), [0, 1], 2)
        assert multiprocessing.active_children() == []

    def test_script_without_main_guard_trains_with_the_default_workers(self, pipeline,
                                                                       tmp_path):
        # spawn workers re-import the main module: a script without an
        # ``if __name__ == "__main__"`` guard failed their bootstrap check
        cfg_path = write_config(tmp_path)
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        script = ("import sys, mags.cli; "
                  f"sys.exit(mags.cli.main(['train', '--config', {str(cfg_path)!r}]))")
        done = subprocess.run([sys.executable, "-c", script], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        serial = sorted((pipeline[0] / "runs" / "checkpoints").iterdir())
        assert len(serial) == 12
        for path in serial:
            assert (tmp_path / "runs" / "checkpoints" / path.name).read_bytes() \
                == path.read_bytes()


class TestPlotdataCommand:
    def test_panels_from_runs(self, pipeline, tmp_path):
        src = pipeline[0] / "runs" / "runs.csv"
        out = tmp_path / "plots"
        assert main(["plotdata", str(src), "--out", str(out)]) == 0
        files = sorted(p.name for p in out.iterdir())
        assert "plot_all.csv" in files
        assert "plot_communication_complete_active_rand.csv" in files
        panel = (out / "plot_communication_complete_active_rand.csv").read_text().splitlines()
        assert panel[1] == "method,fault_rate,mean,err"
        assert len(panel) == 2 + 3 * 2  # 3 methods x 2 rates

    def test_empty_input_emits_header_only(self, tmp_path):
        empty = tmp_path / "empty.csv"
        empty.write_text("# schema: mags/runs/v1\n"
                         "method,graph,fault_kind,fault_rate,policy,seed,"
                         "accuracy,comm_mean,wall_time\n")
        out = tmp_path / "plots"
        assert main(["plotdata", str(empty), "--out", str(out)]) == 0
        files = list(out.iterdir())
        assert [p.name for p in files] == ["plot_all.csv"]
        lines = files[0].read_text().splitlines()
        assert len(lines) == 2  # schema + header

    def test_schema_mismatch_rejected(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("method,graph\nVFL,complete\n")
        assert main(["plotdata", str(bad), "--out", str(tmp_path / "o")]) == 2

    @pytest.mark.parametrize("row,problem", [
        ("VFL,complete,device,0.5,active_rand,1,0.25", "7 fields, not 9"),
        ("VFL,complete,device,0.5,active_rand,1,high,3.0000,0.010", "accuracy 'high'"),
        ("VFL,complete,device,0.5,active_rand,1,0.25,,0.010", "comm_mean ''"),
    ], ids=["short-row", "accuracy", "comm_mean"])
    def test_malformed_row_names_its_file_and_line(self, tmp_path, capsys, row, problem):
        # these used to stop plotdata with an IndexError or ValueError traceback
        bad = tmp_path / "bad.csv"
        bad.write_text("# schema: mags/runs/v1\n" + ",".join(cli.RUNS_HEADER) + "\n"
                       "VFL,complete,device,0.5,active_rand,1,nan,3.0000,0.010\n\n" + row + "\n")
        assert main(["plotdata", str(bad), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}, line 5: {problem}")


class TestPropsCommand:
    def test_report_is_deterministic(self, tmp_path, capsys):
        # the full suite runs elsewhere; here a fixed seed must reproduce bytes
        assert main(["props", "--seed", "3", "--out", str(tmp_path / "a.txt")]) == 0
        capsys.readouterr()
        assert main(["props", "--seed", "3", "--out", str(tmp_path / "b.txt")]) == 0
        capsys.readouterr()
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()
        assert "PASS" in (tmp_path / "a.txt").read_text()

    def test_nonzero_exit_on_certificate_failure(self, monkeypatch, capsys):
        from mags.certs import CertResult
        monkeypatch.setattr(cli, "run_all",
                            lambda seed: [CertResult("stub", False, "forced failure")])
        assert main(["props"]) == 1
        assert "FAIL stub" in capsys.readouterr().out

    def test_negative_seed_is_a_usage_error(self, capsys):
        # exit 2 with one error line, not a traceback and not the exit 1
        # of a failed certificate
        assert main(["props", "--seed", "-1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: --seed must be non-negative, got -1\n"
