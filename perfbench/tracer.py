"""Outside-in span tracer for the udakit package.

The tracer replaces every public function of the layer modules with a
timing wrapper at *every* module that binds it: ``from .nn import forward``
copies the binding into ``adversarial``, ``moment`` and ``harness``, so
patching ``udakit.nn`` alone would miss those calls. Spans are kept in
memory (one buffer per thread, each span with its parent and thread) and
written out once the run ends; nothing is installed unless a traced run
asks for it.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from pathlib import Path
from types import ModuleType

import numpy as np

PACKAGE = "udakit"
LAYERS = ("cli", "harness", "nn", "adversarial", "moment", "metrics", "data", "shift")
TRAINERS = ("nn.train_erm", "adversarial.train_dann", "adversarial.train_adda",
            "adversarial.train_mdan", "moment.train_m3sda")
_NO_PARENT = -1
_THREAD_SHIFT = 40      # span id = thread buffer number << 40 | index in buffer


def _saved_bytes(args, kwargs, result) -> float:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return float(Path(path).stat().st_size)


def _loaded_rows(args, kwargs, result) -> float:
    return float(result.n_samples)


# Per-span amounts, recorded after the span has ended so they cost no span time.
AMOUNTS = {"data.save_dataset": _saved_bytes, "data.load_dataset": _loaded_rows}


class _Buffer:
    """Spans opened by one thread, in columns."""

    def __init__(self, number: int) -> None:
        self.base = number << _THREAD_SHIFT
        self.thread = number
        self.stack: list[int] = []
        self.parent = array("q")
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.amount = array("d")


class Tracer:
    """Install with ``install()``, run the program, ``remove()``, then read
    ``spans()`` or ``write()``."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._buffers: list[_Buffer] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list[tuple[ModuleType, str, object]] = []
        self._main: _Buffer | None = None

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of each layer at every binding site."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        layers = [importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS]
        wrappers: dict[int, object] = {}
        for layer, mod in zip(LAYERS, layers):
            for attr, fn in vars(mod).items():
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                self.names.append(name)
                wrappers[id(fn)] = (fn, self._wrap(fn, len(self.names) - 1, AMOUNTS.get(name)))
        for mod in package_modules():
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, hit[1])
        self._main = self._buffer()

    def remove(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            with self._lock:
                buf = _Buffer(len(self._buffers))
                self._buffers.append(buf)
            self._local.buf = buf
        return buf

    def _wrap(self, fn, name_id: int, amount):
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            buf = getattr(tracer._local, "buf", None) or tracer._buffer()
            stack = buf.stack
            if stack:
                parent = stack[-1]
            else:
                # a pool thread's first span belongs to whatever the
                # installing thread is waiting in (run_matrix / run_fairness)
                main = tracer._main.stack
                parent = main[-1] if main else _NO_PARENT
            index = len(buf.start)
            buf.parent.append(parent)
            buf.name.append(name_id)
            buf.amount.append(0.0)
            buf.end.append(0.0)
            stack.append(buf.base + index)
            buf.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                buf.end[index] = clock()
                stack.pop()
            if amount is not None:
                buf.amount[index] = amount(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        traced.__qualname__ = fn.__qualname__
        traced.__doc__ = fn.__doc__
        return traced

    # -- results --------------------------------------------------------

    def spans(self) -> "Spans":
        """Every span recorded so far, as columns."""
        lengths = [len(buf.start) for buf in self._buffers]
        offsets = np.concatenate([[0], np.cumsum(lengths)[:-1]]).astype(np.int64)
        ids = np.concatenate([np.frombuffer(buf.parent, dtype=np.int64) for buf in self._buffers])
        rows = np.where(ids < 0, _NO_PARENT,
                        offsets[ids >> _THREAD_SHIFT] + (ids & ((1 << _THREAD_SHIFT) - 1)))

        def column(field: str, dtype) -> np.ndarray:
            return np.concatenate([np.frombuffer(getattr(buf, field), dtype=dtype)
                                   for buf in self._buffers])

        thread = np.repeat(np.arange(len(lengths)), lengths)
        return Spans(list(self.names), column("name", np.uint16).astype(np.int64), rows, thread,
                     column("start", np.float64), column("end", np.float64),
                     column("amount", np.float64))

    def write(self, path: Path) -> None:
        sp = self.spans()
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            fh.write("row,parent,thread,name,start_s,end_s,amount\n")
            columns = (sp.parent.tolist(), sp.thread.tolist(), sp.name.tolist(),
                       sp.start.tolist(), sp.end.tolist(), sp.amount.tolist())
            for i, (parent, thread, name, start, end, amount) in enumerate(zip(*columns)):
                fh.write(f"{i},{parent},{thread},{sp.names[name]},{start!r},{end!r},{amount!r}\n")


@dataclass
class Spans:
    """Spans as columns; parent is a row index, -1 for none."""

    names: list[str]            # name[i] indexes this list
    name: np.ndarray
    parent: np.ndarray
    thread: np.ndarray
    start: np.ndarray
    end: np.ndarray
    amount: np.ndarray

    @staticmethod
    def from_rows(rows) -> "Spans":
        """From (id, parent id, thread, name, start, end, amount) tuples."""
        row_of = {r[0]: i for i, r in enumerate(rows)}
        names = sorted({r[3] for r in rows})
        code = {n: i for i, n in enumerate(names)}
        return Spans(names, np.array([code[r[3]] for r in rows], dtype=np.int64),
                     np.array([row_of.get(r[1], _NO_PARENT) for r in rows], dtype=np.int64),
                     np.array([r[2] for r in rows], dtype=np.int64),
                     np.array([r[4] for r in rows], dtype=np.float64),
                     np.array([r[5] for r in rows], dtype=np.float64),
                     np.array([r[6] for r in rows], dtype=np.float64))

    def __len__(self) -> int:
        return len(self.name)

    def code(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1


def package_modules() -> list[ModuleType]:
    """udakit and every loaded submodule: the places a function can be bound."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def is_traced(fn) -> bool:
    return hasattr(fn, "__wrapped__")


def _nearest_trainers(sp: Spans) -> np.ndarray:
    """Row of each span's nearest enclosing trainer span, -1 for none."""
    is_trainer = np.array([n in TRAINERS for n in sp.names], dtype=bool)
    owner = sp.parent.copy()
    pending = (owner >= 0) & ~is_trainer[sp.name[owner]]
    while pending.any():
        owner[pending] = sp.parent[owner[pending]]
        pending = (owner >= 0) & ~is_trainer[sp.name[owner]]
    return owner


def trainer_steps(sp: Spans) -> dict[str, int]:
    """sgd_step calls per trainer, each counted under its nearest trainer span."""
    owner = _nearest_trainers(sp)
    rows = np.flatnonzero((sp.name == sp.code("nn.sgd_step")) & (owner >= 0))
    counts = np.bincount(sp.name[owner[rows]], minlength=len(sp.names))
    return {sp.names[i]: int(c) for i, c in enumerate(counts) if c}


def summarize(sp: Spans, rounds: int, repeats: int) -> dict[str, float]:
    """Per-layer metrics, per round.

    Self time is a span's duration minus the part of it that child spans
    cover; children in pool threads can overlap, so their union is taken.
    A trainer's time is its span minus nested trainer spans (stage-1
    ``train_erm`` inside ``train_adda``), and its steps are the ``sgd_step``
    calls whose nearest enclosing trainer it is.
    """
    n_names = len(sp.names)
    dur = sp.end - sp.start
    calls = np.bincount(sp.name, minlength=n_names)
    total = np.bincount(sp.name, weights=dur, minlength=n_names)
    amount = np.bincount(sp.name, weights=sp.amount, minlength=n_names)

    # a thread runs its own children one after another, so their time adds up
    child = sp.parent >= 0
    same = child & (sp.thread == sp.thread[sp.parent])
    covered = np.bincount(sp.parent[same], weights=dur[same], minlength=len(sp))
    for p in np.unique(sp.parent[child & ~same]):
        kids = np.flatnonzero(sp.parent == p)
        covered[p] = _covered(sp.start[p], sp.end[p], list(zip(sp.start[kids], sp.end[kids])))
    layer_of = [n.split(".", 1)[0] for n in sp.names]
    self_by_name = np.bincount(sp.name, weights=dur - covered, minlength=n_names)
    layer_self = {layer: 0.0 for layer in LAYERS}
    for i, layer in enumerate(layer_of):
        layer_self[layer] = layer_self.get(layer, 0.0) + self_by_name[i]

    owner = _nearest_trainers(sp)
    trainer_rows = np.flatnonzero(np.isin(sp.name, [sp.code(t) for t in TRAINERS]))
    trainer_time = np.bincount(sp.name[trainer_rows], weights=dur[trainer_rows], minlength=n_names)
    nested = trainer_rows[owner[trainer_rows] >= 0]
    trainer_time -= np.bincount(sp.name[owner[nested]], weights=dur[nested], minlength=n_names)
    steps = trainer_steps(sp)

    def get(values: np.ndarray, name: str) -> float:
        i = sp.code(name)
        return float(values[i]) if i >= 0 else 0.0

    def per_call_us(name: str) -> float:
        n = get(calls, name)
        return 1e6 * get(total, name) / n if n else 0.0

    r = float(rounds)
    enclosing = get(total, "harness.run_matrix") + get(total, "harness.run_fairness")
    out: dict[str, float] = {}
    for fn in ("forward", "backward", "cross_entropy", "sgd_step"):
        name = f"nn.{fn}"
        out[f"{name}.calls"] = get(calls, name) / r
        out[f"{name}.us_per_call"] = per_call_us(name)
        out[f"{name}.calls_per_repeat"] = get(calls, name) / r / repeats
    for name in TRAINERS:
        out[f"{name}.us_per_step"] = (1e6 * get(trainer_time, name) / steps[name]
                                      if steps.get(name) else 0.0)
    out["harness.train_cell.calls"] = get(calls, "harness.train_cell") / r
    out["harness.train_cell.busy_s"] = get(total, "harness.train_cell") / r
    out["harness.parallelism"] = (get(total, "harness.train_cell") / enclosing
                                  if enclosing else 0.0)
    out["moment.moment_distance_grads.calls"] = get(calls, "moment.moment_distance_grads") / r
    out["moment.moment_distance_grads.us_per_call"] = per_call_us("moment.moment_distance_grads")
    out["moment.ensemble_predict.s"] = get(total, "moment.ensemble_predict") / r
    out["metrics.auroc.s"] = get(total, "metrics.auroc") / r
    out["metrics.fairness_report.calls"] = get(calls, "metrics.fairness_report") / r
    out["metrics.fairness_report.s"] = get(total, "metrics.fairness_report") / r
    out["data.generate_domain.s"] = get(total, "data.generate_domain") / r
    out["data.save_dataset.s"] = get(total, "data.save_dataset") / r
    out["data.save_dataset.mb"] = get(amount, "data.save_dataset") / 1e6 / r
    out["data.load_dataset.s"] = get(total, "data.load_dataset") / r
    load_s = get(total, "data.load_dataset")
    out["data.load_dataset.rows_per_s"] = get(amount, "data.load_dataset") / load_s if load_s else 0.0
    out["harness.materialize_domains.s"] = get(total, "harness.materialize_domains") / r
    out["shift.wasserstein_feature_distance.calls"] = (
        get(calls, "shift.wasserstein_feature_distance") / r)
    out["shift.wasserstein_feature_distance.s"] = get(total, "shift.wasserstein_feature_distance") / r
    out["shift.build_shift_matrix.s"] = get(total, "shift.build_shift_matrix") / r
    for layer in LAYERS:
        out[f"{layer}.self_s"] = layer_self[layer] / r
    return out


def _covered(start: float, end: float, intervals: list[tuple[float, float]] | None) -> float:
    """Length of [start, end] covered by the union of the given intervals."""
    if not intervals:
        return 0.0
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in sorted(intervals):
        lo, hi = max(lo, start), min(hi, end)
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return covered
