"""Experiment configuration: flat key-value files with sections, method-name
parsing, and dataset/graph construction.

Method names follow the table conventions: ``VFL`` (single aggregator),
``MACL`` (every device aggregates), ``4-MACL`` (four aggregators), optional
``CD-``/``PD-`` prefix for the dropout kind used in training, and an optional
``-G<n>`` suffix for gossip rounds, which only matters at evaluation time
(two methods differing only in the suffix share one checkpoint).
"""

from __future__ import annotations

import configparser
import math
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .data import (COMPUTE_DTYPE, SYNTH_CHUNK_ROWS, SYNTH_SIDE, ClientSplit, client_views,
                   read_idx, scale_pixels, shared_empty, split_patches, synth_dataset)
from .errors import ConfigError
from .faults import FaultModel
from .metrics import POLICIES, fault_rate_key
from .topology import build_graph
from .training import TrainConfig

DATA_ROOT_ENV = "MAGS_DATA_ROOT"
_FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}

_METHOD_RE = re.compile(r"^(?:(CD|PD)-)?(?:(\d+)-)?(MACL|VFL)(?:-G(\d+))?$")


@dataclass
class MethodSpec:
    name: str
    train_name: str
    aggregator_count: int
    dropout: str
    gossip_rounds: int


def parse_method(name: str, device_count: int) -> MethodSpec:
    m = _METHOD_RE.match(name.strip())
    if not m:
        raise ConfigError(f"unrecognized method name {name!r}")
    prefix, knum, core, gossip = m.groups()
    if core == "VFL":
        if knum is not None:
            raise ConfigError(f"{name!r}: VFL takes no aggregator-count prefix")
        k = 1
    else:
        k = int(knum) if knum is not None else device_count
    if not 1 <= k <= device_count:
        raise ConfigError(f"{name!r}: aggregator count {k} out of range 1..{device_count}")
    dropout = {"CD": "cd", "PD": "pd", None: "none"}[prefix]
    train_name = name.strip()
    if gossip is not None:
        train_name = train_name[: train_name.rfind("-G")]
    return MethodSpec(name.strip(), train_name, k, dropout,
                      int(gossip) if gossip is not None else 0)


def parse_seed_list(text: str):
    """Seeds as a comma/space list or an inclusive range like ``1..16``."""
    text = text.strip()
    rng = re.match(r"^(\d+)\.\.(\d+)$", text)
    if rng:
        lo, hi = int(rng.group(1)), int(rng.group(2))
        if hi < lo:
            raise ConfigError(f"bad seed range {text!r}")
        return list(range(lo, hi + 1))
    tokens = [tok for tok in re.split(r"[,\s]+", text) if tok]
    for tok in tokens:
        if not re.fullmatch(r"[+-]?\d+", tok):
            raise ConfigError(f"bad seed {tok!r} in {text!r}")
    seeds = [int(tok) for tok in tokens]
    if not seeds:
        raise ConfigError("seed list must be nonempty")
    return seeds


def _split_list(text: str):
    return [tok for tok in re.split(r"[,\s]+", text.strip()) if tok]


# Every section and key that docs/config.md lists, whatever the dataset kind:
# section -> key -> (the ExperimentConfig field it sets, the parser of its
# text). The four IDX paths are collected into ``idx_paths``.
_IDX_PATH = ("idx_paths", str.strip)
CONFIG_KEYS = {
    "dataset": {"kind": ("dataset_kind", str.strip), "grid": ("grid_side", int),
                "classes": ("classes", int), "train_n": ("synth_train_n", int),
                "test_n": ("synth_test_n", int), "noise": ("synth_noise", float),
                "seed": ("synth_seed", int), "train_images": _IDX_PATH,
                "train_labels": _IDX_PATH, "test_images": _IDX_PATH, "test_labels": _IDX_PATH},
    "graph": {"kind": ("graph_kind", str.strip), "rgg_radius": ("rgg_radius", float),
              "random_aggregators": ("random_aggregators",
                                     lambda s: _FLAGS.get(s.strip().lower())),
              "seed": ("graph_seed", int), "devices": ("devices", int)},
    "methods": {"list": ("methods", _split_list)},
    "train": {"epochs": ("epochs", int), "batch": ("batch_size", int), "lr": ("lr", float),
              "beta1": ("beta1", float), "beta2": ("beta2", float),
              "dropout_rate": ("dropout_rate", float),
              "gossip_in_training": ("gossip_in_training", int),
              "fault_kind": ("train_fault_kind", str.strip),
              "fault_rate": ("train_fault_rate", float)},
    "eval": {"fault_kinds": ("fault_kinds", _split_list),
             "fault_rates": ("fault_rates", lambda s: [float(t) for t in _split_list(s)]),
             "policies": ("policies", _split_list), "trials": ("trials", int)},
    "run": {"seeds": ("seeds", parse_seed_list), "out": ("out_dir", Path)},
}


@dataclass
class ExperimentConfig:
    # dataset
    dataset_kind: str = "synthetic"
    grid_side: int = 4
    classes: int = 10
    synth_train_n: int = 8000
    synth_test_n: int = 2000
    synth_noise: float = 0.3
    synth_seed: int = 7
    idx_paths: dict = field(default_factory=dict)
    # graph
    graph_kind: str = "complete"
    rgg_radius: float | None = None
    random_aggregators: bool = False
    graph_seed: int = 0
    devices: int | None = None
    # methods
    methods: list = field(default_factory=lambda: ["VFL"])
    # training
    epochs: int = 100
    batch_size: int = 64
    lr: float = 0.001
    beta1: float = 0.9
    beta2: float = 0.999
    dropout_rate: float = 0.3
    gossip_in_training: int = 0
    train_fault_kind: str = "none"
    train_fault_rate: float = 0.0
    # evaluation
    fault_kinds: list = field(default_factory=lambda: ["communication"])
    fault_rates: list = field(default_factory=lambda: [0.0, 0.1, 0.2, 0.3, 0.4, 0.5])
    policies: list = field(default_factory=lambda: list(POLICIES))
    trials: int = 1
    # run
    seeds: list = field(default_factory=lambda: list(range(1, 17)))
    out_dir: Path = Path("runs")

    @property
    def device_count(self):
        return self.grid_side * self.grid_side

    def method_specs(self):
        return [parse_method(name, self.device_count) for name in self.methods]

    def train_variants(self):
        """Distinct training variants (gossip suffix stripped), input order kept."""
        names = dict.fromkeys(spec.train_name for spec in self.method_specs())
        return [parse_method(name, self.device_count) for name in names]

    def validate(self):
        """The one load-time gate: every value a run reads is checked here."""
        if self.dataset_kind not in ("synthetic", "idx"):
            raise ConfigError(f"unknown dataset kind {self.dataset_kind!r}")
        if self.random_aggregators not in (True, False):  # None: not a word of _FLAGS
            raise ConfigError("[graph] random_aggregators must be 1, true, yes, 0, false or no")
        if self.devices is not None and self.devices != self.device_count:
            raise ConfigError(
                f"[graph] devices = {self.devices} conflicts with grid side {self.grid_side} "
                f"({self.device_count} patch clients)")
        checks = [("[dataset] grid", self.grid_side, 1), ("[dataset] seed", self.synth_seed, 0),
                  ("[graph] seed", self.graph_seed, 0), ("[eval] trials", self.trials, 1)]
        if self.dataset_kind == "synthetic":
            checks += [("[dataset] train_n", self.synth_train_n, 1),
                       ("[dataset] test_n", self.synth_test_n, 1),
                       ("[dataset] classes", self.classes, 2),
                       ("[dataset] noise", self.synth_noise, 0)]
        if self.dataset_kind == "synthetic" and not math.isfinite(self.synth_noise):
            raise ConfigError(f"[dataset] noise = {self.synth_noise} must be finite")
        for key, value, low in checks:
            if value < low:
                raise ConfigError(f"{key} = {value} must be >= {low}")
        if self.dataset_kind == "synthetic" and SYNTH_SIDE % self.grid_side:
            raise ConfigError(f"[dataset] grid = {self.grid_side} does not divide the "
                              f"synthetic image side {SYNTH_SIDE}")
        if not self.methods:
            raise ConfigError("method list must be nonempty")
        if not self.policies:
            raise ConfigError("policy list must be nonempty")
        for p in self.policies:
            if p not in POLICIES:
                raise ConfigError(f"unknown policy {p!r}")
        if not self.fault_kinds:
            raise ConfigError("fault kind list must be nonempty")
        if not self.fault_rates:
            raise ConfigError("fault rate list must be nonempty")
        if "none" in self.fault_kinds:
            raise ConfigError("unknown eval fault kind 'none'")
        for kind in self.fault_kinds:
            for r in self.fault_rates:
                try:
                    FaultModel(kind, r)
                except ConfigError as exc:
                    raise ConfigError(f"[eval] {kind} at rate {r}: {exc}") from None
                fault_rate_key(r)
        if not self.seeds:
            raise ConfigError("seed list must be nonempty")
        # a repeat would run a job twice and count its rows twice in the aggregate
        for key, values in (("[run] seeds", self.seeds), ("[methods] list", self.methods),
                            ("[eval] fault_kinds", self.fault_kinds),
                            ("[eval] fault_rates",
                             [fault_rate_key(r) / 1000 for r in self.fault_rates]),
                            ("[eval] policies", self.policies)):
            repeats = [v for i, v in enumerate(values) if v in values[:i]]
            if repeats:
                raise ConfigError(f"{key} repeats {repeats[0]!r}")
        # two names of one method (MACL and C-MACL, VFL and 1-MACL) would
        # train one model twice, and score it twice
        methods, models = {}, {}
        for spec in self.method_specs():
            model = (spec.aggregator_count, spec.dropout)
            first = methods.setdefault(model + (spec.gossip_rounds,), spec)
            if first is not spec:
                raise ConfigError(f"[methods] list: {first.name!r} and {spec.name!r} are one "
                                  f"method (aggregator count {model[0]}, dropout {model[1]}, "
                                  f"gossip rounds {spec.gossip_rounds})")
            first = models.setdefault(model, spec)
            if first.train_name != spec.train_name:
                raise ConfigError(f"[methods] list: {first.name!r} and {spec.name!r} train one "
                                  f"model (aggregator count {model[0]}, dropout {model[1]})")
        for spec in self.method_specs():
            build_method_graph(self, spec)
            for seed in self.seeds:
                try:
                    build_train_config(self, spec, seed)
                except ConfigError as exc:
                    raise ConfigError(f"method {spec.name!r}: {exc}") from None
        if self.dataset_kind == "idx":
            for key in ("train_images", "train_labels", "test_images", "test_labels"):
                if key not in self.idx_paths:
                    raise ConfigError(f"idx dataset needs the {key} path")
                if not self.idx_paths[key].exists():
                    raise ConfigError(f"dataset file not found: {self.idx_paths[key]}")
        return self


def resolve_data_path(raw: str, config_dir: Path) -> Path:
    """Dataset paths resolve against $MAGS_DATA_ROOT when set, else against
    the directory containing the config file."""
    p = Path(raw)
    if p.is_absolute():
        return p
    root = os.environ.get(DATA_ROOT_ENV)
    return (Path(root) / p) if root else (config_dir / p)


def load_config(path, seeds_override=None, out_override=None) -> ExperimentConfig:
    path = Path(path)
    parser = configparser.ConfigParser(inline_comment_prefixes=("#", ";"))
    try:
        with open(path) as f:
            parser.read_file(f, source=str(path))
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except configparser.Error as exc:
        raise ConfigError(f"config parse error: {exc}")

    cfg = ExperimentConfig()
    for section in parser.sections():
        keys = CONFIG_KEYS.get(section)
        if keys is None:
            raise ConfigError(f"unknown section [{section}]; known: "
                              f"{', '.join(CONFIG_KEYS)}")
        for key, raw in parser.items(section):
            if key not in keys:
                raise ConfigError(f"unknown key [{section}] {key}; known: "
                                  f"{', '.join(keys)}")
            name, parse = keys[key]
            try:
                value = parse(raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] {key} = {raw!r}: {exc}")
            if name == "idx_paths":
                cfg.idx_paths[key] = value
            else:
                setattr(cfg, name, value)
    # the IDX paths count only for an IDX dataset
    cfg.idx_paths = ({key: resolve_data_path(raw, path.parent)
                      for key, raw in cfg.idx_paths.items()}
                     if cfg.dataset_kind == "idx" else {})

    if seeds_override:
        cfg.seeds = list(seeds_override)
    if out_override:
        cfg.out_dir = Path(out_override)
    return cfg.validate()


def build_dataset(cfg: ExperimentConfig, split: str, workers: int = 1) -> ClientSplit:
    """The ``split`` ("train" or "test") of the configured source as its
    clients' views, built alone: a synthetic split is its rows of the
    train_n + test_n pool (the pool's first train_n rows are the training
    pool), and an IDX split reads only its own two files.

    The (C, n, d) views and the labels are allocated once, in shared memory,
    and filled one block of rows at a time, the blocks cut at the pool's
    multiples of SYNTH_CHUNK_ROWS (so a synthetic block is one noise block,
    or the part of it the split holds): only a block's float64 features
    exist besides the COMPUTE_DTYPE views, never the split's whole feature
    matrix. The blocks are independent jobs, run by ``cli._run_jobs`` in
    ``workers`` processes, each block weighted by the rows it draws; the
    forked workers write their blocks straight into the shared views, and
    the calling process fills the heaviest block itself."""
    from .cli import _run_jobs  # the fork code lives in the cli module, which imports this one

    if cfg.dataset_kind == "synthetic":
        n_train, n = cfg.synth_train_n, cfg.synth_train_n + cfg.synth_test_n
        lo, hi = {"train": (0, n_train), "test": (n_train, n)}[split]
        feature_count, class_count = SYNTH_SIDE * SYNTH_SIDE, cfg.classes

        def block(a, b):
            ds = synth_dataset(n, cfg.classes, cfg.grid_side, cfg.synth_seed, cfg.synth_noise,
                               rows=(a, b))
            return ds.features, ds.labels
    else:
        pixels, pool_labels, class_count = read_idx(
            cfg.idx_paths[f"{split}_images"], cfg.idx_paths[f"{split}_labels"],
            class_count=cfg.classes)
        lo, (hi, feature_count) = 0, pixels.shape

        def block(a, b):
            return scale_pixels(pixels[a:b]), pool_labels[a:b]

    partition = split_patches(feature_count, cfg.grid_side)
    views = shared_empty((partition.client_count, hi - lo, len(partition.client_columns[0])),
                         COMPUTE_DTYPE)
    labels = shared_empty((hi - lo,), np.int64)
    edges = [lo, *range((lo // SYNTH_CHUNK_ROWS + 1) * SYNTH_CHUNK_ROWS, hi, SYNTH_CHUNK_ROWS), hi]
    blocks = list(zip(edges, edges[1:]))

    def fill(share):
        for a, b in share:
            features, labels[a - lo:b - lo] = block(a, b)
            client_views(features, partition, out=views[:, a - lo:b - lo])
            del features  # before the next block is built
        return [None] * len(share)

    # a block draws its rows from the start of its noise block: the first
    # block of a split that starts inside one draws the rows before it too
    weights = [b - a // SYNTH_CHUNK_ROWS * SYNTH_CHUNK_ROWS for a, b in blocks]
    _run_jobs(fill, blocks, workers, weights)
    return ClientSplit(views, labels, class_count, partition)


def build_method_graph(cfg: ExperimentConfig, spec: MethodSpec):
    return build_graph(cfg.graph_kind, cfg.device_count, spec.aggregator_count,
                       seed=cfg.graph_seed, rgg_radius=cfg.rgg_radius,
                       random_aggregators=cfg.random_aggregators)


def build_train_config(cfg: ExperimentConfig, spec: MethodSpec, seed: int) -> TrainConfig:
    return TrainConfig(
        epochs=cfg.epochs, batch_size=cfg.batch_size, lr=cfg.lr,
        beta1=cfg.beta1, beta2=cfg.beta2, dropout=spec.dropout,
        dropout_rate=cfg.dropout_rate,
        train_fault=FaultModel(cfg.train_fault_kind, cfg.train_fault_rate),
        gossip_rounds=cfg.gossip_in_training, seed=seed,
    )
