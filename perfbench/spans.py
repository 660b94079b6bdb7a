"""Span recording around the public functions of each layer.

The benchmark never edits ``src/``: it measures layers by replacing
public functions and methods with thin wrappers that record one span
per call (name, start, end, parent, run id, and an optional count).
:func:`install` puts the wrappers in place and returns a handle whose
:meth:`Installation.restore` puts every original back.

Spans are kept in memory in flat typed arrays (a traced pass records
around a million of them).  Work that runs in fork-started worker
processes (the campaign pool, the epoch shard pool) is recorded there
too: after a fork the child starts an empty buffer and appends it to a
per-process file each time its outermost span closes, because pool
workers exit through ``os._exit`` and never run exit hooks.  The parent
merges those files with :meth:`SpanRecorder.collect`.
"""

from __future__ import annotations

import functools
import inspect
import os
import pickle
import sys
import time
from array import array
from dataclasses import dataclass, field
from importlib import import_module
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

#: Wrapper flavours: how a span's count column is filled.
PLAIN = "plain"  # count 0
EVENTS = "events"  # events the Environment scheduled during the call
ARG_N = "arg_n"  # the ``n`` argument (MetricsCollector.note_offered)


@dataclass(frozen=True)
class Target:
    """One wrap point: a span name and the function it measures.

    ``qualname`` is ``func`` for a module-level function (replaced in
    every ``repro`` module that bound it by import) or ``Class.method``
    (replaced on the class, and on every loaded subclass that overrides
    the method when ``subclasses`` is set).
    """

    span: str
    module: str
    qualname: str
    flavour: str = PLAIN
    subclasses: bool = False


class SpanRecorder:
    """In-memory span store shared by every installed wrapper."""

    def __init__(self, names: Sequence[str], spill_dir: Path) -> None:
        self.names = list(names)
        self.spill_dir = Path(spill_dir)
        self.starts = array("q")
        self.ends = array("q")
        self.name_ids = array("i")
        self.parents = array("i")
        self.run_ids = array("i")
        self.counts = array("q")
        self.stack: List[int] = []
        self.run_labels: List[str] = ["-"]
        #: Index into :attr:`run_labels` stamped on new spans.
        self.run = 0
        self.in_child = False
        self.origin = time.perf_counter_ns()

    # -- runs -----------------------------------------------------------
    def begin_run(self, label: str) -> None:
        """Stamp spans opened from now on with ``label``."""
        self.run_labels.append(label)
        self.run = len(self.run_labels) - 1

    def end_run(self) -> None:
        self.run = 0

    # -- fork handling --------------------------------------------------
    def after_fork_in_child(self) -> None:
        """Drop the parent's spans; the child reports only its own."""
        for column in self._columns():
            del column[:]
        self.stack.clear()
        self.in_child = True

    def spill(self) -> None:
        """Append this child's spans to its file and clear the buffer."""
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        path = self.spill_dir / f"spans-{os.getpid()}.bin"
        block = (self.run_labels, [c.tobytes() for c in self._columns()])
        with open(path, "ab") as handle:
            pickle.dump(block, handle, protocol=pickle.HIGHEST_PROTOCOL)
        for column in self._columns():
            del column[:]

    def _columns(self):
        return (self.starts, self.ends, self.name_ids, self.parents,
                self.run_ids, self.counts)

    # -- result ---------------------------------------------------------
    def collect(self) -> "SpanTable":
        """Merge this process's spans with every spilled child block."""
        blocks = [(0, self.run_labels, [np.frombuffer(c.tobytes(), c.typecode)
                                        if len(c) else np.zeros(0, c.typecode)
                                        for c in self._columns()])]
        if self.spill_dir.is_dir():
            for proc, path in enumerate(
                sorted(self.spill_dir.glob("spans-*.bin")), start=1
            ):
                with open(path, "rb") as handle:
                    while True:
                        try:
                            labels, raw = pickle.load(handle)
                        except EOFError:
                            break
                        cols = [np.frombuffer(b, t) for b, t in
                                zip(raw, "qqiiiq")]
                        blocks.append((proc, labels, cols))
        return SpanTable.merge(self.names, blocks, self.origin)


@dataclass
class SpanTable:
    """Merged spans of one traced pass, as numpy columns."""

    names: List[str]
    start: np.ndarray
    end: np.ndarray
    name: np.ndarray
    parent: np.ndarray
    run: np.ndarray
    count: np.ndarray
    proc: np.ndarray
    run_labels: List[str] = field(default_factory=list)

    @classmethod
    def merge(cls, names, blocks, origin: int) -> "SpanTable":
        starts, ends, name_ids, parents, runs, counts, procs = (
            [], [], [], [], [], [], [])
        label_index: Dict[str, int] = {}
        offset = 0
        for proc, block_labels, (s, e, n, p, r, c) in blocks:
            remap = np.array(
                [label_index.setdefault(lbl, len(label_index))
                 for lbl in block_labels] or [0], dtype=np.int64)
            starts.append(s.astype(np.int64) - origin)
            ends.append(e.astype(np.int64) - origin)
            name_ids.append(n.astype(np.int64))
            parents.append(np.where(p >= 0, p.astype(np.int64) + offset, -1))
            runs.append(remap[r.astype(np.int64)] if len(r) else
                        np.zeros(0, np.int64))
            counts.append(c.astype(np.int64))
            procs.append(np.full(len(s), proc, dtype=np.int64))
            offset += len(s)
        labels = sorted(label_index, key=label_index.get)
        cat = (lambda parts: np.concatenate(parts) if parts
               else np.zeros(0, np.int64))
        return cls(list(names), cat(starts), cat(ends), cat(name_ids),
                   cat(parents), cat(runs), cat(counts), cat(procs), labels)

    def __len__(self) -> int:
        return len(self.start)

    # -- derived columns --------------------------------------------------
    @functools.cached_property
    def duration(self) -> np.ndarray:
        return self.end - self.start

    @functools.cached_property
    def self_time(self) -> np.ndarray:
        return self_times(self.start, self.end, self.parent)

    def name_mask(self, names) -> np.ndarray:
        wanted = [i for i, n in enumerate(self.names) if n in set(names)]
        return np.isin(self.name, wanted)

    @functools.cached_property
    def nested_in_same(self) -> np.ndarray:
        """Spans inside another span of their own name (recursion)."""
        return self.ancestor_mask((), same_name=True)

    def ancestor_mask(self, names, same_name: bool = False) -> np.ndarray:
        """Spans with an ancestor named in ``names`` (or, with
        ``same_name``, an ancestor of their own name)."""
        wanted = np.array(
            [i for i, n in enumerate(self.names) if n in set(names)],
            dtype=np.int64)
        hit = np.zeros(len(self), dtype=bool)
        cur = self.parent.copy()
        while True:
            live = cur >= 0
            if not live.any():
                return hit
            anc = self.name[np.where(live, cur, 0)]
            match = (anc == self.name) if same_name else np.isin(anc, wanted)
            hit |= live & match
            cur = np.where(live, self.parent[np.where(live, cur, 0)], -1)

    def label_mask(self, predicate: Callable[[str], bool]) -> np.ndarray:
        ok = np.array([predicate(lbl) for lbl in self.run_labels] or [False])
        return ok[self.run] if len(self) else np.zeros(0, dtype=bool)

    # -- aggregates --------------------------------------------------------
    def calls(self, names, where=None) -> int:
        mask = self.name_mask(names)
        if where is not None:
            mask &= where
        return int(mask.sum())

    def inclusive_s(self, names, where=None) -> float:
        """Seconds inside ``names``, not counting a call nested in a
        call of the same name twice."""
        mask = self.name_mask(names) & ~self.nested_in_same
        if where is not None:
            mask &= where
        return float(self.duration[mask].sum()) / 1e9

    def self_s(self, names, where=None) -> float:
        mask = self.name_mask(names)
        if where is not None:
            mask &= where
        return float(self.self_time[mask].sum()) / 1e9

    def count_sum(self, names, where=None) -> int:
        mask = self.name_mask(names)
        if where is not None:
            mask &= where
        return int(self.count[mask].sum())

    def save(self, path: Path) -> None:
        """Write the spans (times in ns from the recorder's origin)."""
        np.savez(path, start=self.start, end=self.end,
                 name=self.name.astype(np.int16),
                 parent=self.parent.astype(np.int32),
                 run=self.run.astype(np.int16),
                 count=self.count.astype(np.int32),
                 proc=self.proc.astype(np.int16),
                 names=np.array(self.names),
                 run_labels=np.array(self.run_labels or ["-"]))


def self_times(start: np.ndarray, end: np.ndarray,
               parent: np.ndarray) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Wrapped functions are synchronous and parents come from a
    per-process call stack, so a span's children are disjoint and lie
    inside it.  Times are integers (nanoseconds), so this is exact.
    """
    start = np.asarray(start, dtype=np.int64)
    end = np.asarray(end, dtype=np.int64)
    parent = np.asarray(parent, dtype=np.int64)
    duration = end - start
    kids = parent >= 0
    covered = np.bincount(parent[kids], weights=duration[kids],
                          minlength=len(start))
    return duration - covered.astype(np.int64)


# ----------------------------------------------------------------------
# Installing wrappers
# ----------------------------------------------------------------------

_ACTIVE: Optional[SpanRecorder] = None
_FORK_HOOK = False


def _after_fork() -> None:
    if _ACTIVE is not None:
        _ACTIVE.after_fork_in_child()


def _make_wrapper(fn, name_id: int, flavour: str, rec: SpanRecorder):
    starts, ends, name_ids = rec.starts, rec.ends, rec.name_ids
    parents, run_ids, counts = rec.parents, rec.run_ids, rec.counts
    stack = rec.stack
    clock = time.perf_counter_ns

    def open_span(count: int) -> int:
        idx = len(starts)
        starts.append(clock())
        ends.append(0)
        name_ids.append(name_id)
        parents.append(stack[-1] if stack else -1)
        run_ids.append(rec.run)
        counts.append(count)
        stack.append(idx)
        return idx

    def close_span(idx: int) -> None:
        stack.pop()
        ends[idx] = clock()
        if rec.in_child and not stack:
            rec.spill()

    if flavour == PLAIN:
        def wrapper(*args, **kwargs):
            idx = open_span(0)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)
    elif flavour == ARG_N:
        default_n = inspect.signature(fn).parameters["n"].default

        def wrapper(*args, **kwargs):
            n = kwargs.get("n", args[1] if len(args) > 1 else default_n)
            idx = open_span(int(n))
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)
    elif flavour == EVENTS:
        def wrapper(env, *args, **kwargs):
            before = env.events_scheduled
            idx = open_span(0)
            try:
                return fn(env, *args, **kwargs)
            finally:
                counts[idx] = env.events_scheduled - before
                close_span(idx)
    else:
        raise ValueError(f"unknown wrapper flavour {flavour!r}")
    functools.update_wrapper(wrapper, fn)
    return wrapper


@dataclass
class Installation:
    """The wrappers in place; :meth:`restore` undoes :func:`install`."""

    recorder: SpanRecorder
    #: (owner, attribute, original) for every replaced binding.
    patches: List[Tuple[object, str, object]]

    def restore(self) -> None:
        global _ACTIVE
        for owner, attr, original in reversed(self.patches):
            setattr(owner, attr, original)
        self.patches.clear()
        if _ACTIVE is self.recorder:
            _ACTIVE = None


def _subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from _subclasses(sub)


def install(targets: Sequence[Target], spill_dir: Path,
            extra_modules: Sequence[str] = ()) -> Installation:
    """Wrap every target; a target that cannot be found is an error.

    ``extra_modules`` are imported first so that subclasses defined in
    them (baseline controllers, levers) are wrapped too.
    """
    global _ACTIVE, _FORK_HOOK
    if _ACTIVE is not None:
        raise RuntimeError("span wrappers are already installed")
    for module in extra_modules:
        import_module(module)
    names = sorted({t.span for t in targets})
    rec = SpanRecorder(names, spill_dir)
    patches: List[Tuple[object, str, object]] = []
    try:
        for target in targets:
            name_id = names.index(target.span)
            module = import_module(target.module)
            owner_name, _, attr = target.qualname.rpartition(".")
            if owner_name:
                cls = getattr(module, owner_name)
                owners = [cls]
                if target.subclasses:
                    owners += [s for s in _subclasses(cls)
                               if attr in vars(s)]
                if attr not in vars(cls):
                    raise AttributeError(
                        f"{target.module}.{target.qualname} not found")
                for owner in owners:
                    original = vars(owner)[attr]
                    _check_wrappable(target, original)
                    wrapper = _make_wrapper(original, name_id,
                                            target.flavour, rec)
                    patches.append((owner, attr, original))
                    setattr(owner, attr, wrapper)
            else:
                original = getattr(module, attr)
                _check_wrappable(target, original)
                wrapper = _make_wrapper(original, name_id, target.flavour,
                                        rec)
                for mod_name, mod in list(sys.modules.items()):
                    if not (mod_name == "repro" or
                            mod_name.startswith("repro.")):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            patches.append((mod, key, original))
                            setattr(mod, key, wrapper)
    except BaseException:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)
        raise
    if not _FORK_HOOK:
        os.register_at_fork(after_in_child=_after_fork)
        _FORK_HOOK = True
    _ACTIVE = rec
    return Installation(rec, patches)


def _check_wrappable(target: Target, fn) -> None:
    if not callable(fn):
        raise TypeError(f"{target.module}.{target.qualname} is not callable")
    if inspect.isgeneratorfunction(fn):
        raise TypeError(
            f"{target.module}.{target.qualname} is a generator function; "
            "a call span would time only the generator's creation"
        )
