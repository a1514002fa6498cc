"""Deterministic random-stream derivation.

Each run owns a single master seed. Named streams are split off through
``numpy.random.SeedSequence`` spawn keys, so the streams are mutually
independent and consuming one (say, fault sampling) never perturbs another
(say, data shuffling). In particular, changing the number of gossip rounds
does not change which fault realizations get drawn.

Splitting rule: stream(master, name, *subkeys) uses
``SeedSequence(entropy=master, spawn_key=(STREAM_IDS[name], *subkeys))``
feeding a PCG64 generator. Subkeys let callers derive per-cell substreams
(e.g. one per fault kind and rate) that stay independent of iteration order.

The synthetic dataset's noise is keyed by block: rows [1024j, 1024(j+1)) of
a pool draw their noise from stream(seed, "noise", j), so a split draws
only the blocks it holds, whatever rows come before it.
"""

from __future__ import annotations

import numpy as np

STREAM_IDS = {
    "init": 0,     # model weight initialization
    "data": 1,     # train-set shuffling
    "dropout": 2,  # simulated-fault dropout masks
    "fault": 3,    # fault realizations
    "noise": 5,    # synthetic image noise, one subkey per row block
}  # fixed ids: renumbering a stream changes every draw from it


def stream(master_seed: int, name: str, *subkeys: int) -> np.random.Generator:
    """Derive the named random stream for a master seed."""
    if name not in STREAM_IDS:
        raise ValueError(f"unknown rng stream {name!r}")
    seq = np.random.SeedSequence(
        entropy=int(master_seed),
        spawn_key=(STREAM_IDS[name], *(int(k) for k in subkeys)),
    )
    return np.random.Generator(np.random.PCG64(seq))
