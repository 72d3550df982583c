"""Timing shims for the traced run, and the per-layer report they feed.

:func:`install` wraps each layer's public entry points so every call
records a span (name, start, end, parent) in a :class:`Tracer` and bumps
the layer's work counters.  Nothing here is imported into the program:
the shims exist only while a traced pass runs, and :func:`install`
returns the function that puts every original back.

A function imported by name into other modules (``from x import f``) is
replaced in every loaded ``repro`` module that holds it, so callers see
the shim however they reached the function.
"""

from __future__ import annotations

import importlib
import sys
import time
from collections import Counter
from typing import Callable, Dict, List

import numpy as np

from repro.experiments import common
from repro.mmu.subblock_tlb import CompleteSubblockTLB, PartialSubblockTLB
from repro.mmu.superpage_tlb import SuperpageTLB

#: Layers timed inside the body, in report order.  The ``workloads``
#: layer runs in set-up, outside the body.
LAYERS = (
    "translation_map",
    "populate",
    "phase1.single",
    "phase1.superpage",
    "phase1.partial-subblock",
    "phase1.complete-subblock",
    "stream_cache",
    "kernel_compile",
    "replay",
    "fallback",
    "numa.batch",
    "numa.scalar",
    "arena.admit",
    "arena.depart",
    "arena.refault",
    "tenancy",
)

#: The shims' own counting, kept out of the layer it would land in.
BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """In-memory spans plus the counters the shims bump."""

    def __init__(self) -> None:
        #: [name, start, end, parent index or -1]
        self.spans: List[list] = []
        self._open: List[int] = []
        self.counts: Counter = Counter()

    def begin(self, name: str) -> None:
        parent = self._open[-1] if self._open else -1
        self._open.append(len(self.spans))
        self.spans.append([name, time.perf_counter(), 0.0, parent])

    def end(self) -> None:
        self.spans[self._open.pop()][2] = time.perf_counter()

    def self_times(self, start: int, stop: int) -> Dict[str, float]:
        """Self seconds per span name over ``spans[start:stop]``.

        Self time is a span's duration minus the durations of its direct
        children, so nested layers (compile inside replay, populate's
        inserts inside admit) are never counted twice.
        """
        totals: Counter = Counter()
        for name, begun, ended, parent in self.spans[start:stop]:
            duration = ended - begun
            totals[name] += duration
            if parent >= start:
                totals[self.spans[parent][0]] -= duration
        return dict(totals)

    def dump(self) -> List[dict]:
        return [
            {"name": name, "start": start, "end": end, "parent": parent}
            for name, start, end, parent in self.spans
        ]


def _phase1_layer(args, kwargs) -> str:
    tlb = args[1] if len(args) > 1 else kwargs["tlb"]
    if isinstance(tlb, CompleteSubblockTLB):
        return "phase1.complete-subblock"
    if isinstance(tlb, PartialSubblockTLB):
        return "phase1.partial-subblock"
    if isinstance(tlb, SuperpageTLB):
        return "phase1.superpage"
    return "phase1.single"


def _count_workload(counts, args, kwargs, workload) -> None:
    if workload.trace is not None:
        counts["workloads.refs"] += len(workload.trace)


def _count_tenant_streams(counts, args, kwargs, streams) -> None:
    counts["workloads.refs"] += sum(s.misses for s in streams.values())


def _count_phase1(counts, args, kwargs, stream) -> None:
    counts["phase1.refs"] += stream.accesses
    counts["phase1.misses"] += stream.misses


def _count_compile(counts, args, kwargs, kernel) -> None:
    counts["kernel_compile.calls"] += 1


def _count_replay(counts, args, kwargs, replayed) -> None:
    stream = args[0] if args else kwargs["stream"]
    counts["replay.walks"] += replayed.misses
    counts["replay.distinct_vpns"] += int(np.unique(stream.vpns).size)


def _count_fallback(counts, args, kwargs, replayed) -> None:
    counts["fallback.calls"] += 1
    counts["fallback.walks"] += replayed.misses


def _count_numa(counts, args, kwargs, replayed) -> None:
    counts["numa.walks"] += replayed.misses


def _count_tmap(counts, args, kwargs, tmap) -> None:
    counts["translation_map.ptes"] += len(tmap)


def _count_populate(counts, args, kwargs, result) -> None:
    counts["populate.ptes"] += len(args[0])


def _count_cache_get(counts, args, kwargs, stream) -> None:
    counts["stream_cache.misses" if stream is None else "stream_cache.hits"] += 1


def _count_tenancy(counts, args, kwargs, result) -> None:
    counts["arena.reclaims"] += result.reclaims
    counts["arena.evicted_ptes"] += result.evicted_ptes


#: (module, attribute, layer, counter) for module-level functions.
FUNCTIONS = (
    ("repro.workloads.suite", "load_workload", "workloads", _count_workload),
    ("repro.tenancy.tenant", "build_tenant_streams", "workloads",
     _count_tenant_streams),
    # Building an empty table is part of filling it.
    ("repro.analysis.metrics", "make_table", "populate", None),
    ("repro.mmu.simulate", "collect_misses", _phase1_layer, _count_phase1),
    ("repro.cache.stream_cache", "stream_cache_key", "stream_cache", None),
    ("repro.mmu.batch_kernels", "compile_kernel", "kernel_compile",
     _count_compile),
    ("repro.mmu.batch", "replay_misses_batch", "replay", _count_replay),
    ("repro.mmu.batch", "replay_misses_batch_many", "replay", None),
    ("repro.mmu.simulate", "replay_misses", "fallback", _count_fallback),
    ("repro.numa.batch", "replay_misses_numa_batch", "numa.batch",
     _count_numa),
    ("repro.numa.replay", "replay_misses_numa", "numa.scalar", _count_numa),
)

#: (module, class, method, layer, counter) for methods.
METHODS = (
    ("repro.os.translation_map", "TranslationMap", "from_space",
     "translation_map", _count_tmap),
    ("repro.os.translation_map", "TranslationMap", "populate", "populate",
     _count_populate),
    ("repro.cache.stream_cache", "StreamCache", "get", "stream_cache",
     _count_cache_get),
    ("repro.cache.stream_cache", "StreamCache", "put", "stream_cache", None),
    ("repro.tenancy.arena", "SharedArena", "admit", "arena.admit", None),
    ("repro.tenancy.arena", "SharedArena", "depart", "arena.depart", None),
    ("repro.tenancy.arena", "SharedArena", "refault", "arena.refault", None),
    ("repro.tenancy.scheduler", "TenantScheduler", "run", "tenancy",
     _count_tenancy),
)


def _shim(tracer: Tracer, fn: Callable, layer, counter) -> Callable:
    def shim(*args, **kwargs):
        tracer.begin(layer(args, kwargs) if callable(layer) else layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.end()
        if counter is not None:
            tracer.begin(BOOKKEEPING)
            try:
                counter(tracer.counts, args, kwargs, result)
            finally:
                tracer.end()
        return result

    return shim


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every entry point; returns the function that unwraps them."""
    undo = []

    def replace(owner, name, new):
        undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, new)

    # Import every target first, so modules the workload loads lazily
    # (the NUMA batch kernels) are wrapped too.
    for module_name, *_ in FUNCTIONS + METHODS:
        importlib.import_module(module_name)
    loaded = [
        module for name, module in list(sys.modules.items())
        if name.split(".")[0] in ("repro", "cells") and module is not None
    ]
    for module_name, attr, layer, counter in FUNCTIONS:
        original = getattr(sys.modules[module_name], attr)
        shim = _shim(tracer, original, layer, counter)
        for module in loaded:
            if module.__dict__.get(attr) is original:
                replace(module, attr, shim)
    for module_name, class_name, attr, layer, counter in METHODS:
        owner = getattr(sys.modules[module_name], class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            shim = classmethod(_shim(tracer, raw.__func__, layer, counter))
        else:
            shim = _shim(tracer, raw, layer, counter)
        replace(owner, attr, shim)

    def restore() -> None:
        for owner, name, value in reversed(undo):
            setattr(owner, name, value)

    return restore


def cache_errors() -> int:
    """Corrupt artefacts the active stream cache has met so far.

    Each set-up makes a fresh cache, so read after a body this is that
    pass's count.
    """
    cache = common.stream_cache()
    return cache.stats.errors if cache is not None else 0


def layer_metrics(self_s: Dict[str, float], counts: Counter,
                  setup_s: Dict[str, float], setup_counts: Counter,
                  passes: int, wall_s: float,
                  untraced_wall_s: float) -> Dict[str, float]:
    """Per-pass layer metrics from summed self times and counters.

    ``self_s`` and ``counts`` cover the timed bodies of ``passes`` traced
    passes, ``setup_s`` and ``setup_counts`` their set-ups; every value
    returned is per pass.  ``wall_s`` is the traced body time and
    ``untraced_wall_s`` the untraced one from the same run.
    """
    per = {name: value / passes for name, value in self_s.items()}
    n = {name: value / passes for name, value in counts.items()}
    phase1 = sum(per.get(layer, 0.0) for layer in LAYERS
                 if layer.startswith("phase1."))
    walks = n.get("replay.walks", 0.0)
    fallback_walks = n.get("fallback.walks", 0.0)
    covered = sum(per.get(layer, 0.0) for layer in LAYERS)
    bookkeeping = per.get(BOOKKEEPING, 0.0)
    metrics = {
        "workloads.host_s": setup_s.get("workloads", 0.0) / passes,
        "workloads.refs": setup_counts.get("workloads.refs", 0) / passes,
        "translation_map.host_s": per.get("translation_map", 0.0),
        "translation_map.ptes": n.get("translation_map.ptes", 0.0),
        "populate.host_s": per.get("populate", 0.0),
        "populate.ptes": n.get("populate.ptes", 0.0),
        "phase1.host_s": phase1,
    }
    for layer in LAYERS:
        if layer.startswith("phase1."):
            metrics[f"{layer}.host_s"] = per.get(layer, 0.0)
    metrics.update({
        "phase1.refs": n.get("phase1.refs", 0.0),
        "phase1.misses": n.get("phase1.misses", 0.0),
        "refs_per_s": n.get("phase1.refs", 0.0) / untraced_wall_s,
        "stream_cache.host_s": per.get("stream_cache", 0.0),
        "stream_cache.hits": n.get("stream_cache.hits", 0.0),
        "stream_cache.misses": n.get("stream_cache.misses", 0.0),
        "stream_cache.errors": n.get("stream_cache.errors", 0.0),
        "kernel_compile.host_s": per.get("kernel_compile", 0.0),
        "kernel_compile.calls": n.get("kernel_compile.calls", 0.0),
        "replay.host_s": per.get("replay", 0.0),
        "replay.walks": walks,
        "replay.distinct_vpns": n.get("replay.distinct_vpns", 0.0),
        "replay.dedupe_ratio": (
            n.get("replay.distinct_vpns", 0.0) / walks if walks else 0.0
        ),
        "fallback.host_s": per.get("fallback", 0.0),
        "fallback.calls": n.get("fallback.calls", 0.0),
        "fallback.walks": fallback_walks,
        "fallback.share": (
            fallback_walks / (walks + fallback_walks)
            if walks + fallback_walks else 0.0
        ),
        "numa.batch.host_s": per.get("numa.batch", 0.0),
        "numa.scalar.host_s": per.get("numa.scalar", 0.0),
        "numa.walks": n.get("numa.walks", 0.0),
        "arena.admit.host_s": per.get("arena.admit", 0.0),
        "arena.depart.host_s": per.get("arena.depart", 0.0),
        "arena.refault.host_s": per.get("arena.refault", 0.0),
        "arena.reclaims": n.get("arena.reclaims", 0.0),
        "arena.evicted_ptes": n.get("arena.evicted_ptes", 0.0),
        "tenancy.self_s": per.get("tenancy", 0.0),
        "trace.coverage": covered / (wall_s - bookkeeping),
        "trace.overhead": wall_s / untraced_wall_s - 1.0,
    })
    return metrics


def unit_of(name: str) -> str:
    """The unit of one per-layer metric."""
    if name == "refs_per_s":
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.startswith(("trace.", "replay.dedupe", "fallback.share")):
        return "ratio"
    return "count"


def amdahl_table(self_s: Dict[str, float], passes: int, wall_s: float) -> str:
    """Each layer's self time, share of the pass, and speedup bound.

    Shares are of the traced pass less the shims' counting.  The bound is
    the whole pass's speedup if that layer cost nothing:
    ``1 / (1 - share)``.
    """
    bookkeeping = self_s.get(BOOKKEEPING, 0.0) / passes
    wall_s -= bookkeeping
    lines = [f"  {'layer':<26}{'self_s':>10}{'share':>9}{'bound':>9}"]
    rows = sorted(
        ((layer, self_s.get(layer, 0.0) / passes) for layer in LAYERS),
        key=lambda row: -row[1],
    )
    covered = 0.0
    for layer, seconds in rows:
        if seconds <= 0.0:
            continue
        covered += seconds
        share = seconds / wall_s
        bound = 1.0 / (1.0 - share) if share < 1.0 else float("inf")
        lines.append(f"  {layer:<26}{seconds:>10.4f}{share:>8.1%}{bound:>8.2f}x")
    other = wall_s - covered
    lines.append(f"  {'(not in any layer)':<26}{other:>10.4f}{other / wall_s:>8.1%}")
    lines.append(f"  {'(shim counting, excluded)':<26}{bookkeeping:>10.4f}")
    return "\n".join(lines)
