"""Call tracing for the traced benchmark run.

The tracer wraps named ``mags`` functions from outside the program: for a
target such as ``nn.mlp_forward`` it takes the function object bound to
``mags.nn.mlp_forward`` and rebinds every ``mags.*`` module attribute that
holds that same object (callers use ``from .nn import mlp_forward``, so
``mags.training.mlp_forward`` and ``mags.inference.mlp_forward`` are separate
bindings). Each call records one span in memory: target, start, end and the
enclosing traced span. Self time is a span's duration minus the durations of
its child spans.

A target whose module or function no longer exists is reported as absent,
never as zero calls, so a later change that deletes or renames a function
does not break the traced run.
"""

from __future__ import annotations

import functools
import hashlib
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

import numpy as np

ABSENT = -1.0  # metric value of a target that no longer exists

# Unit suffix of a percentile statistic (``p99_us``) -> seconds multiplier.
_PERCENTILE_UNITS = {"us": 1e6, "ms": 1e3, "s": 1.0}


def _fingerprint(obj, h, depth=0):
    """Feed a cheap content fingerprint of ``obj`` into hash ``h``.

    Arrays contribute their shape and a strided sample of at most 64 values;
    containers contribute their length and their first two and last
    elements. Cheap enough to run on every call of a traced function, and
    content-based, so a checkpoint loaded twice hashes the same.
    """
    if depth > 8:
        return
    if isinstance(obj, np.ndarray):
        flat = obj.reshape(-1)
        step = max(1, flat.size // 64)
        h.update(repr((obj.shape, obj.dtype.str)).encode())
        h.update(np.ascontiguousarray(flat[::step]).tobytes())
    elif isinstance(obj, (str, bytes, int, float, bool)) or obj is None:
        h.update(repr(obj).encode())
    elif isinstance(obj, dict):
        items = sorted(obj.items(), key=lambda kv: repr(kv[0]))
        h.update(b"d%d" % len(items))
        for k, v in items[:2] + items[2:][-1:]:
            h.update(repr(k).encode())
            _fingerprint(v, h, depth + 1)
    elif isinstance(obj, (list, tuple)):
        h.update(b"l%d" % len(obj))
        for v in list(obj[:2]) + list(obj[2:][-1:]):
            _fingerprint(v, h, depth + 1)
    elif hasattr(obj, "__dict__"):
        h.update(type(obj).__name__.encode())
        _fingerprint(vars(obj), h, depth)
    else:
        h.update(repr(obj).encode())


def fingerprint(obj) -> bytes:
    h = hashlib.blake2b(digest_size=16)
    _fingerprint(obj, h)
    return h.digest()


class Tracer:
    """In-memory span recorder for a fixed list of ``module.function`` targets.

    ``keys`` maps a target to what identifies its input for the useful-work
    ratio: ``"result"`` fingerprints the return value, an integer ``n``
    fingerprints the first ``n`` positional arguments.
    """

    def __init__(self, targets, keys=None):
        self.targets = list(dict.fromkeys(targets))
        self.keys = dict(keys or {})
        self.absent = set()
        self.distinct = {t: set() for t in self.keys}
        self.name_id = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self._stack = []

    def _wrap(self, tid, fn, keyspec):
        name_id, parent, start, end, stack = (
            self.name_id, self.parent, self.start, self.end, self._stack)
        seen = self.distinct.get(self.targets[tid])

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = len(start)
            name_id.append(tid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                start[span] = t0
                end[span] = t1
            if seen is not None:
                seen.add(fingerprint(result if keyspec == "result" else args[:keyspec]))
            return result

        return traced

    @contextmanager
    def installed(self):
        """Rebind every ``mags.*`` attribute that holds a target function to
        its traced wrapper for the duration of the block."""
        mods = {name: mod for name, mod in list(sys.modules.items())
                if mod is not None and (name == "mags" or name.startswith("mags."))}
        patched = []
        try:
            for tid, target in enumerate(self.targets):
                module, _, func = target.rpartition(".")
                fn = getattr(mods.get(f"mags.{module}"), func, None)
                if not callable(fn):
                    self.absent.add(target)
                    continue
                traced = self._wrap(tid, fn, self.keys.get(target))
                for mod in mods.values():
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, traced)
                            patched.append((mod, attr, fn))
            yield self
        finally:
            for mod, attr, fn in patched:
                setattr(mod, attr, fn)

    def spans(self):
        """Recorded spans as numpy arrays (name id, parent index, start, end)."""
        return (np.array(self.name_id, dtype=np.int64), np.array(self.parent, dtype=np.int64),
                np.array(self.start, dtype=np.float64), np.array(self.end, dtype=np.float64))

    def save(self, path):
        name_id, parent, start, end = self.spans()
        np.savez_compressed(path, targets=np.array(self.targets), name_id=name_id,
                            parent=parent, start=start, end=end)

    def stats(self):
        """Per-target call count, busy and self seconds, per-call durations,
        and distinct-input count where a key was given."""
        name_id, parent, start, end = self.spans()
        dur = end - start
        child = np.zeros(dur.size)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        out = {}
        for tid, target in enumerate(self.targets):
            if target in self.absent:
                out[target] = None
                continue
            mask = name_id == tid
            d = dur[mask]
            out[target] = {
                "calls": int(d.size),
                "busy_s": float(d.sum()),
                "self_s": float((d - child[mask]).sum()),
                "durations": d,
                "distinct": len(self.distinct[target]) if target in self.distinct else None,
            }
        return out


def metric_value(stats, name):
    """Value of one per-layer metric named ``<module>.<function>.<statistic>``.

    Statistics: ``calls``, ``busy_s``, ``self_s``, ``distinct``,
    ``useful_frac`` (distinct inputs / calls) and per-call percentiles such as
    ``p50_us``, ``p99_us``, ``p50_ms`` or ``p50_s``. A function that was never
    called reads 0; a function that no longer exists reads ``ABSENT``.
    """
    target, _, stat = name.rpartition(".")
    s = stats[target]
    if s is None:
        return ABSENT
    if stat in ("calls", "busy_s", "self_s"):
        return s[stat]
    if stat in ("distinct", "useful_frac") and s["distinct"] is None:
        raise KeyError(f"{target} has no input key, so {name!r} is undefined")
    if stat == "distinct":
        return s["distinct"]
    if stat == "useful_frac":
        return s["distinct"] / s["calls"] if s["calls"] else 0.0
    if stat.startswith("p") and "_" in stat:
        pct, _, unit = stat[1:].partition("_")
        if unit in _PERCENTILE_UNITS and pct.isdigit():
            if not s["calls"]:
                return 0.0
            return float(np.percentile(s["durations"], int(pct))) * _PERCENTILE_UNITS[unit]
    raise KeyError(f"unknown per-layer statistic in {name!r}")
