"""The benchmark's workloads: seeded inputs, a timed body, checked outputs.

Each workload has three parts:

- ``setup(seed, workdir)`` generates the inputs from the seed alone
  (traces, address spaces, tenant streams, a filled stream cache).  Its
  host time is ``setup_s``.
- ``body(inputs, checkpoint)`` is the timed pass.  It drives the
  simulator's public layer functions and returns a :class:`Pass`: the
  simulated outputs of every cell, keyed by cell id, plus the work it
  did.  It calls ``checkpoint()`` between units of work (one paper
  workload, one table), where the benchmark may pause the clock to
  gauge the box's speed.
- ``cleanup(inputs)`` removes what setup left on disk.

A cell is one operation: a phase-1 miss stream, or a replay of one
stream through one table, NUMA configuration or tenancy schedule.  A cell
that raises is recorded as an error string, which never equals a
reference output, so it counts as failed.
"""

from __future__ import annotations

import math
import shutil
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro.analysis.metrics import make_table
from repro.experiments import common
from repro.experiments import fig11, numa as numa_experiment, softtlb
from repro.experiments import tenancy as sweep
from repro.experiments.modern import sweep_buckets
from repro.numa.topology import get_topology
from repro.os.physmem import FrameAllocator
from repro.os.translation_map import TranslationMap
from repro.pagetables.software_tlb import SoftwareTLBTable
from repro.tenancy.arena import SharedArena
from repro.tenancy.churn import ChurnSchedule
from repro.tenancy.scheduler import TenantScheduler
from repro.workloads.suite import load_workload

#: Trace lengths are chosen so one pass takes a few host seconds on a
#: 2-core x86 box while each workload's target layer still dominates it.
PAPER_TRACE = 12_000
COSTING_TRACE = 10_000
COSTING_NUMA_MISSES = 2_000
COSTING_TOPOLOGIES = ("2-node", "8-node")
TENANTS = 1_000
#: Fewer than the tenancy experiment's eight slots, to keep a pass short.
TENANCY_SLOTS = 2
TENANCY_TRACE = 50_000
MODERN_FAMILIES = ("kv-store", "web-server")
MODERN_FOOTPRINT_MB = 256
MODERN_TRACE = 20_000
MODERN_TABLES = ("hashed", "clustered", "forward-3lvl")


@dataclass
class Pass:
    """What one timed body produced."""

    outputs: Dict[str, object] = field(default_factory=dict)
    #: Page-table walks replayed (every replay cell's misses).
    walks: int = 0
    #: Trace references pushed through phase 1 (cache hits excluded).
    refs: int = 0


def _cell(result: Pass, key: str, fn: Callable[[], List]):
    """Run one cell; an exception becomes its (never matching) output."""
    try:
        value = fn()
    except Exception as exc:  # one failed cell must not stop the pass
        traceback.print_exc(file=sys.stderr)
        result.outputs[key] = f"error: {type(exc).__name__}: {exc}"
        return None
    result.outputs[key] = value
    return value


def _stream_cell(result: Pass, key: str, stream_fn, counts_refs: bool):
    def run():
        stream = stream_fn()
        if counts_refs:
            result.refs += stream.accesses
        return stream

    stream = _cell(result, key, run)
    if stream is not None:
        result.outputs[key] = [stream.accesses, stream.misses]
    return stream


def _replay_cell(result: Pass, key: str, stream, make, tmap, base_only,
                 complete_subblock=False) -> None:
    def run():
        if stream is None:
            raise RuntimeError("no miss stream for this cell")
        table = make()
        tmap.populate(table, base_pages_only=base_only)
        replayed = common.replay(
            stream, table, complete_subblock=complete_subblock
        )
        result.walks += replayed.misses
        return [replayed.misses, replayed.cache_lines, replayed.probes,
                replayed.faults]

    _cell(result, key, run)


def _with_union(workloads):
    """Pair each workload with the one shared space its tables map."""
    return {
        name: (workload, workload.union_space())
        for name, workload in workloads.items()
    }


# ---------------------------------------------------------------------------
# paper-cold: Figure 11 cold, with no stream cache
# ---------------------------------------------------------------------------
def paper_setup(seed: int, workdir: str):
    common.configure_stream_cache(None)
    return _with_union({
        name: load_workload(name, trace_length=PAPER_TRACE, seed=seed)
        for name in common.TRACED_WORKLOADS
    })


def _no_checkpoint() -> None:
    pass


def paper_body(workloads, checkpoint=_no_checkpoint) -> Pass:
    result = Pass()
    for name, (workload, union) in workloads.items():
        _paper_unit(result, name, workload, union)
        checkpoint()
    return result


def _paper_unit(result: Pass, name, workload, union) -> None:
    for config in fig11.SUBFIGURES.values():
        kind = config["tlb"]
        tmap = TranslationMap.from_space(union, common.policy_for(kind))
        streams = {}
        for entries in (common.TLB_ENTRIES, common.LINEAR_TLB_ENTRIES):
            streams[entries] = _stream_cell(
                result, f"{name}/{kind}/tlb{entries}",
                lambda: common.collect_misses_cached(
                    workload.trace, common.TLB_FACTORIES[kind](entries), tmap,
                ),
                counts_refs=True,
            )
        for table_name in config["series"]:
            entries = (
                common.LINEAR_TLB_ENTRIES
                if table_name.startswith("linear") else common.TLB_ENTRIES
            )
            _replay_cell(
                result, f"{name}/{kind}/{table_name}", streams[entries],
                lambda: make_table(table_name, num_buckets=4096),
                tmap, config["base_pages_only"],
                complete_subblock=(kind == "complete-subblock"),
            )


# ---------------------------------------------------------------------------
# costing-warm: software-TLB fronts and NUMA costing over a warm cache
# ---------------------------------------------------------------------------
def costing_setup(seed: int, workdir: str):
    cache_dir = tempfile.mkdtemp(prefix="streams-", dir=workdir)
    common.configure_stream_cache(cache_dir)
    workloads = _with_union({
        name: load_workload(name, trace_length=COSTING_TRACE, seed=seed)
        for name in common.TRACED_WORKLOADS
    })
    for workload, union in workloads.values():
        tmap = TranslationMap.from_space(union, None)
        common.collect_misses_cached(
            workload.trace, common.single_page_tlb(), tmap
        )
    return {"workloads": workloads, "cache_dir": cache_dir}


def _numa_cell(result: Pass, key, stream, workload, tmap, table_name,
               topology, policy) -> None:
    def run():
        if stream is None:
            raise RuntimeError("no miss stream for this cell")
        table = make_table(table_name, workload.layout, num_buckets=4096)
        tmap.populate(table, base_pages_only=True)
        replayed = numa_experiment._replay_numa(
            stream, table, topology=get_topology(topology), policy=policy,
            access_pattern="block-affine", miss_limit=COSTING_NUMA_MISSES,
        )
        result.walks += replayed.misses
        return [replayed.misses, replayed.cache_lines, replayed.faults,
                replayed.numa.cycles, replayed.policy_stats.migrations,
                replayed.policy_stats.migration_cycles]

    _cell(result, key, run)


def costing_body(inputs, checkpoint=_no_checkpoint) -> Pass:
    result = Pass()
    maps = {}
    for name, (workload, union) in inputs["workloads"].items():
        maps[name] = _softtlb_unit(result, name, workload, union)
        checkpoint()
    for name in numa_experiment.DEFAULT_WORKLOADS:
        _numa_unit(result, name, inputs["workloads"][name][0], *maps[name])
        checkpoint()
    return result


def _softtlb_unit(result: Pass, name, workload, union):
    tmap = TranslationMap.from_space(union, None)
    stream = _stream_cell(
        result, f"{name}/single/tlb64",
        lambda: common.collect_misses_cached(
            workload.trace, common.single_page_tlb(), tmap
        ),
        counts_refs=False,
    )
    for backing in softtlb.BACKINGS:
        _replay_cell(
            result, f"{name}/{backing}", stream,
            lambda: make_table(backing), tmap, True,
        )
        _replay_cell(
            result, f"{name}/{backing}+swtlb", stream,
            lambda: SoftwareTLBTable(
                workload.layout, num_sets=512, associativity=2,
                backing=make_table(backing),
            ),
            tmap, True,
        )
    return tmap, stream


def _numa_unit(result: Pass, name, workload, tmap, stream) -> None:
    for table_name in numa_experiment.DEFAULT_TABLES:
        for topology in COSTING_TOPOLOGIES:
            for policy in numa_experiment.DEFAULT_POLICIES:
                _numa_cell(
                    result, f"{name}/{table_name}/{topology}/{policy}",
                    stream, workload, tmap, table_name, topology, policy,
                )


def costing_cleanup(inputs) -> None:
    common.configure_stream_cache(None)
    shutil.rmtree(inputs["cache_dir"], ignore_errors=True)


# ---------------------------------------------------------------------------
# tenancy-churn: 1k tenants with 10% churn per slot under tight memory
# ---------------------------------------------------------------------------
def tenancy_setup(seed: int, workdir: str):
    common.configure_stream_cache(None)
    schedulers = {}
    for table_name in sweep.DEFAULT_TABLES:
        schedule = ChurnSchedule(
            TENANTS, TENANCY_SLOTS,
            churn_fraction=sweep.CHURN_FRACTION, seed=seed,
        )
        peak_pages = schedule.peak_active * sweep.FOOTPRINT
        table = make_table(
            table_name, num_buckets=sweep.arena_buckets(peak_pages)
        )
        allocator = FrameAllocator(
            int(math.ceil(peak_pages * sweep.HEADROOM_CHURN))
        )
        arena = SharedArena(table, allocator, watermark=sweep.WATERMARK)
        schedulers[table_name] = TenantScheduler(
            arena, schedule,
            misses_per_slot=sweep.misses_per_slot(TENANCY_TRACE, TENANTS),
            footprint=sweep.FOOTPRINT, seed=seed,
        )
    return schedulers


def tenancy_body(schedulers, checkpoint=_no_checkpoint) -> Pass:
    result = Pass()
    for table_name, scheduler in schedulers.items():
        def run(scheduler=scheduler):
            run_result = scheduler.run()
            result.walks += run_result.misses
            return [
                run_result.misses, run_result.cache_lines, run_result.probes,
                run_result.faults, run_result.refault_misses,
                run_result.reclaims, run_result.evicted_ptes,
                run_result.population.p50, run_result.population.p99,
                run_result.worst_tenant_p99,
            ]

        _cell(result, f"{table_name}/{TENANTS}t/churn", run)
        checkpoint()
    return result


# ---------------------------------------------------------------------------
# modern-footprint: production-shaped address spaces, 1 GB in total
# ---------------------------------------------------------------------------
def modern_setup(seed: int, workdir: str):
    common.configure_stream_cache(None)
    return _with_union({
        name: load_workload(
            name, trace_length=MODERN_TRACE, seed=seed,
            footprint_mb=MODERN_FOOTPRINT_MB,
        )
        for name in MODERN_FAMILIES
    })


def modern_body(workloads, checkpoint=_no_checkpoint) -> Pass:
    result = Pass()
    for name, (workload, union) in workloads.items():
        _modern_unit(result, name, workload, union, checkpoint)
    return result


def _modern_unit(result: Pass, name, workload, union, checkpoint) -> None:
    tmap = TranslationMap.from_space(union, None)
    stream = _stream_cell(
        result, f"{name}/single/tlb64",
        lambda: common.collect_misses_cached(
            workload.trace, common.single_page_tlb(), tmap
        ),
        counts_refs=True,
    )
    buckets = sweep_buckets(workload.total_mapped_pages())
    for table_name in MODERN_TABLES:
        _replay_cell(
            result, f"{name}/{table_name}", stream,
            lambda: make_table(table_name, num_buckets=buckets),
            tmap, True,
        )
        checkpoint()


@dataclass(frozen=True)
class Workload:
    """One benchmark workload; README.md says why each is there."""

    name: str
    setup: Callable
    body: Callable[..., Pass]
    cleanup: Optional[Callable] = None
    #: Stream-cache warmth of the timed body, for the result stamp.
    cache: str = "none"


WORKLOADS: Dict[str, Workload] = {
    w.name: w for w in (
        Workload("paper-cold", paper_setup, paper_body),
        Workload("costing-warm", costing_setup, costing_body,
                 costing_cleanup, cache="warm"),
        Workload("tenancy-churn", tenancy_setup, tenancy_body),
        Workload("modern-footprint", modern_setup, modern_body),
    )
}
