"""Robust decentralized collaborative inference over fault-prone device
networks: split neural models, multiple aggregators, gossip ensembling, and
simulated faults, with selection policies scored on shared fault draws."""

from .data import (ClientSplit, Dataset, PartitionSpec, make_splits, read_idx, split_patches,
                   synth_dataset)
from .faults import FaultModel, RealizedGraph, sample_realization
from .inference import SplitModel, mags_infer
from .metrics import POLICIES, ensemble_decomposition, evaluate_policies
from .topology import DeviceGraph, build_graph, spectral_radius
from .training import Checkpoint, TrainConfig, fit, load_checkpoint, save_checkpoint

__version__ = "0.1.0"

__all__ = [
    "ClientSplit", "Dataset", "PartitionSpec", "make_splits", "read_idx", "split_patches",
    "synth_dataset", "FaultModel", "RealizedGraph", "sample_realization", "SplitModel",
    "mags_infer", "POLICIES", "ensemble_decomposition", "evaluate_policies",
    "DeviceGraph", "build_graph", "spectral_radius",
    "Checkpoint", "TrainConfig", "fit", "load_checkpoint", "save_checkpoint",
    "__version__",
]
