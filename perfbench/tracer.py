"""Span tracer for the traced benchmark run.

``Tracer.install`` wraps every public function, every class constructor and
every public method defined in the ``measerr`` layer modules, and rebinds
each wrapped function in every ``measerr`` module that imported it.  Each
call records a span (name, start, end, parent span, unit id) in memory;
``write`` saves them when the run ends.  Self time is a span's duration minus
the time its direct child spans cover, so numpy and builtin work done inside
a function counts towards that function's layer.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import statistics
import sys
from collections import Counter
from enum import Enum
from time import perf_counter

import numpy as np

LAYERS = (
    "states",
    "measurement",
    "transport",
    "errors",
    "relations",
    "indirect",
    "generate",
    "serialize",
    "suites",
    "cli",
)
# Spans whose arguments are kept until the run ends: for the distinct-input
# ratios and for the per-dimension call times.
UNIQUE = ("transport.pushforward", "indirect.induced_povm")
BY_DIM = ("relations.evaluate_relation", "transport.pushforward", "measurement.Povm")
COUNTED = ("states.HermitianObservable", "measurement.Povm") + UNIQUE
DIMS = (2, 5, 8)


def _unique_key(name: str, values: list) -> tuple:
    if name == "transport.pushforward":
        ctx, obs = values[0], values[1]
        return id(ctx), hashlib.blake2b(obs.matrix.tobytes(), digest_size=16).digest()
    return (id(values[0]),)


class Tracer:
    """Collects spans for calls into ``measerr`` made by the benchmark."""

    def __init__(self):
        self.names: list[str] = []
        self.signatures: list = []
        self.records: list = []
        self.stack: list[int] = []
        self.unit = -1
        self.raised: Counter = Counter()
        self.kept: list[tuple[int, tuple, dict]] = []

    def _wrap(self, name: str, fn):
        nid = len(self.names)
        self.names.append(name)
        records, stack, raised, kept = self.records, self.stack, self.raised, self.kept
        keep = name in UNIQUE or name in BY_DIM
        self.signatures.append(inspect.signature(fn) if keep else None)
        tracer = self

        @functools.wraps(fn)
        def span(*args, **kwargs):
            idx = len(records)
            records.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                raised[nid] += 1
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                records[idx] = (nid, t0, t1, parent, tracer.unit)
            if keep:
                kept.append((idx, args, kwargs))
            return result

        return span

    def install(self) -> None:
        """Wrap the layer modules of the already imported ``measerr``."""
        replaced = {}
        for layer in LAYERS:
            module = importlib.import_module(f"measerr.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    replaced[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
                elif inspect.isclass(obj) and not issubclass(obj, Enum):
                    self._wrap_class(f"{layer}.{attr}", obj)
        for mod_name, module in list(sys.modules.items()):
            if mod_name == "measerr" or mod_name.startswith("measerr."):
                for attr, obj in list(vars(module).items()):
                    if id(obj) in replaced and inspect.isfunction(obj):
                        setattr(module, attr, replaced[id(obj)])

    def _wrap_class(self, name: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr == "__init__":
                setattr(cls, attr, self._wrap(name, member))
            elif attr.startswith("_"):
                continue
            elif inspect.isfunction(member):
                setattr(cls, attr, self._wrap(f"{name}.{attr}", member))
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = self._wrap(f"{name}.{attr}", member.__func__)
                setattr(cls, attr, type(member)(wrapped))

    def _arguments(self, idx: int, args: tuple, kwargs: dict) -> list:
        """A kept call's arguments in parameter order, however they were passed."""
        signature = self.signatures[self.records[idx][0]]
        return list(signature.bind(*args, **kwargs).arguments.values())

    def arrays(self) -> dict:
        """Spans as columns; call only when no span is open."""
        nid, t0, t1, parent, unit = zip(*self.records)
        return {
            "name": np.asarray(nid, dtype=np.int32),
            "start": np.asarray(t0),
            "end": np.asarray(t1),
            "parent": np.asarray(parent, dtype=np.int64),
            "unit": np.asarray(unit, dtype=np.int64),
        }

    def write(self, path) -> None:
        """Save every span, with the name table, as one ``.npz`` file."""
        np.savez(path, names=np.asarray(self.names), **self.arrays())

    def summarize(self, units: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics, as (value, unit), over ``units`` units of work."""
        spans = self.arrays()
        dur = spans["end"] - spans["start"]
        child = np.zeros_like(dur)
        has_parent = spans["parent"] >= 0
        np.add.at(child, spans["parent"][has_parent], dur[has_parent])
        self_time = dur - child
        total = float(self_time.sum())
        names = np.asarray(self.names)
        span_layer = np.asarray([n.split(".")[0] for n in self.names])[spans["name"]]
        out: dict[str, tuple[float, str]] = {}
        for layer in LAYERS:
            mask = span_layer == layer
            raised = sum(c for nid, c in self.raised.items() if self.names[nid].startswith(layer + "."))
            out[f"{layer}.calls_per_unit"] = (int(mask.sum()) / units, "calls/unit")
            out[f"{layer}.self_ms_per_unit"] = (float(self_time[mask].sum()) * 1e3 / units, "ms/unit")
            out[f"{layer}.self_share"] = (float(self_time[mask].sum()) / total, "ratio")
            out[f"{layer}.raised"] = (raised, "count")
        span_name = names[spans["name"]]
        for name in COUNTED:
            out[f"{name}.calls_per_unit"] = (int((span_name == name).sum()) / units, "calls/unit")
        kept = [(idx, self.names[self.records[idx][0]], self._arguments(idx, args, kwargs))
                for idx, args, kwargs in self.kept]
        for name in UNIQUE:
            keys = [_unique_key(n, values) for _, n, values in kept if n == name]
            out[f"{name}.unique_ratio"] = (len(set(keys)) / len(keys) if keys else 0.0, "ratio")
        for name in BY_DIM:
            by_dim: dict[int, list[float]] = {d: [] for d in DIMS}
            # The first argument is the context, or for Povm spans the finished instance.
            for idx, n, values in kept:
                dim = getattr(values[0], "dim", None)
                if n == name and dim in by_dim:
                    by_dim[dim].append(float(dur[idx]))
            for d, times in by_dim.items():
                out[f"{name}.us_d{d}"] = (statistics.median(times) * 1e6 if times else 0.0, "us")
        return out
