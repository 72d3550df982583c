"""Bulk page-table construction: every array-driven ``insert_many`` is the loop.

``PageTable.insert_many`` — a loop over ``insert`` — defines what a bulk
insert does.  The hashed (and superpage-index hashed), clustered and
forward-mapped tables override it with chunked versions, and the
software-TLB and multiple-page-table wrappers forward it to their
constituents.  Each must leave exactly the loop's table behind:

- the same structure, down to chain order, bucket-dict order and tree
  child order (chain order decides how many probes a walk takes);
- the same ``WalkStats`` and ``size_bytes()``;
- on a batch that raises, the same exception and the same partially
  inserted state.

The oracle is the base-class loop bound onto an identical table, so
every comparison here is bulk table against oracle table.
"""

from __future__ import annotations

from types import MethodType

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.addr.layout import AddressLayout
from repro.addr.space import Mapping
from repro.core.clustered import ClusteredPageTable
from repro.experiments import common
from repro.mmu.simulate import MissStream, replay_misses
from repro.os.physmem import FrameAllocator
from repro.os.promotion import BASE_ONLY_POLICY, DynamicPageSizePolicy
from repro.os.translation_map import TranslationMap
from repro.pagetables.base import BULK_CHUNK, PageTable
from repro.pagetables.forward import ForwardMappedPageTable
from repro.pagetables.hashed import (
    HashedPageTable,
    SuperpageIndexHashedPageTable,
)
from repro.pagetables.pte import PTEKind
from repro.pagetables.software_tlb import SoftwareTLBTable
from repro.pagetables.strategies import MultiplePageTables
from repro.tenancy.arena import SharedArena
from repro.tenancy.tenant import Tenant
from repro.workloads.suite import load_workload

LAYOUT = AddressLayout()

#: Every table with an array-driven ``insert_many``, by name.  A small
#: bucket count makes chains long, so chain order shows in probes.
BULK_TABLES = {
    "hashed": lambda buckets: HashedPageTable(LAYOUT, num_buckets=buckets),
    "superpage-index": lambda buckets: SuperpageIndexHashedPageTable(
        LAYOUT, num_buckets=buckets
    ),
    "clustered": lambda buckets: ClusteredPageTable(
        LAYOUT, num_buckets=buckets
    ),
    "forward-7lvl": lambda buckets: ForwardMappedPageTable(LAYOUT),
    "forward-3lvl": lambda buckets: ForwardMappedPageTable(
        LAYOUT, level_bits=(18, 17, 17)
    ),
}

#: Tables that forward a bulk insert to a constituent.
WRAPPERS = {
    "swtlb-hashed": lambda buckets: SoftwareTLBTable(
        LAYOUT, num_sets=64, backing=HashedPageTable(LAYOUT, num_buckets=buckets)
    ),
    "swtlb16-clustered": lambda buckets: SoftwareTLBTable(
        LAYOUT, num_sets=64, grain=16,
        backing=ClusteredPageTable(LAYOUT, num_buckets=buckets),
    ),
    "hashed-multi": lambda buckets: MultiplePageTables([
        HashedPageTable(LAYOUT, num_buckets=buckets),
        HashedPageTable(LAYOUT, num_buckets=buckets, grain=16),
    ]),
}

ALL_TABLES = {**BULK_TABLES, **WRAPPERS}

WORKLOADS = common.TRACED_WORKLOADS + ("kv-store", "web-server")


def oracle(table: PageTable) -> PageTable:
    """Bind the base-class loop as ``insert_many`` (constituents too)."""
    table.insert_many = MethodType(PageTable.insert_many, table)
    for inner in getattr(table, "tables", ()):
        oracle(inner)
    if isinstance(table, SoftwareTLBTable):
        oracle(table.backing)
    return table


def dump(table: PageTable):
    """Everything a walk or a size query can observe, in storage order."""
    if isinstance(table, SoftwareTLBTable):
        sets = [[vars(slot) for slot in ways] for ways in table._sets]
        return dump(table.backing), sets, table.hits, table.misses
    if isinstance(table, MultiplePageTables):
        return [dump(inner) for inner in table.tables]
    if isinstance(table, ForwardMappedPageTable):
        def tree(node):
            return (
                [(index, tree(child)) for index, child in node.children.items()],
                list(node.leaves.items()),
                list(node.superpages.items()),
            )
        return tree(table._root), table._cell_count, table._tree_bytes
    return (
        [(bucket, [vars(node) for node in chain])
         for bucket, chain in table._buckets.items()],
        table._node_count,
        getattr(table, "_node_bytes", None),
    )


def state(table: PageTable):
    stats = [table.stats]
    stats += [inner.stats for inner in getattr(table, "tables", ())]
    if isinstance(table, SoftwareTLBTable):
        stats.append(table.backing.stats)
    return dump(table), stats, table.size_bytes()


def outcome(action, table):
    """Run ``action(table)``; return (result, error) for comparison."""
    try:
        return action(table), None
    except Exception as exc:  # compared, never swallowed
        return None, (type(exc), str(exc))


def assert_same(make, *actions):
    """Each action leaves the same result/error and state on both tables."""
    bulk, loop = make(), oracle(make())
    for action in actions:
        assert outcome(action, bulk) == outcome(action, loop)
        assert state(bulk) == state(loop)
    return bulk, loop


# ---------------------------------------------------------------------------
# Whole workloads through TranslationMap.populate
# ---------------------------------------------------------------------------
_SPACES = {}


def union_space(name):
    if name not in _SPACES:
        footprint = 16 if name in ("kv-store", "web-server") else None
        workload = load_workload(
            name, with_trace=False, seed=7, footprint_mb=footprint
        )
        _SPACES[name] = workload.union_space()
    return _SPACES[name]


def reference_populate(tmap, table, base_pages_only):
    """``TranslationMap.populate`` as one ``insert`` per PTE, in its order:
    base PTEs, then each wide PTE (decomposed or native) in map order."""
    for vpn, mapping in tmap._base.items():
        table.insert(vpn, mapping.ppn, mapping.attrs)
    for vpbn, pte in tmap._wide.items():
        if base_pages_only:
            for boff in range(pte.npages):
                if (pte.valid_mask >> boff) & 1:
                    table.insert(
                        pte.base_vpn + boff, pte.base_ppn + boff, pte.attrs
                    )
        elif pte.kind is PTEKind.SUPERPAGE:
            table.insert_superpage(
                pte.base_vpn, pte.npages, pte.base_ppn, pte.attrs
            )
        else:
            table.insert_partial_subblock(
                vpbn, pte.valid_mask, pte.base_ppn, pte.attrs
            )


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("base_pages_only", [True, False])
def test_populate_matches_loop(workload, base_pages_only):
    """Wide PTEs from the full policy exercise both populate modes."""
    tmap = TranslationMap.from_space(
        union_space(workload), DynamicPageSizePolicy()
    )
    for name, factory in ALL_TABLES.items():
        for buckets in (64, 4096):
            bulk, loop = factory(buckets), factory(buckets)
            assert outcome(
                lambda table: tmap.populate(table, base_pages_only), bulk
            ) == outcome(
                lambda table: reference_populate(tmap, table, base_pages_only),
                loop,
            )
            assert state(bulk) == state(loop), name


def test_populate_takes_one_bulk_call():
    tmap = TranslationMap.from_space(
        union_space("mp3d"), DynamicPageSizePolicy()
    )
    assert tmap._wide, "the policy should form wide PTEs here"
    calls = []
    table = ClusteredPageTable(LAYOUT)
    table.insert_many = lambda items, attrs=7: calls.append(len(list(items)))
    tmap.populate(table, base_pages_only=True)
    wide_pages = sum(bin(pte.valid_mask).count("1") for pte in tmap._wide.values())
    assert calls == [len(tmap._base) + wide_pages]


def test_base_only_from_space_matches_classification():
    """The BASE_ONLY shortcut keeps decide()'s block and page order."""
    for name in ("mp3d", "kv-store"):
        space = union_space(name)
        fast = TranslationMap.from_space(space, BASE_ONLY_POLICY)
        slow = TranslationMap(space.layout)
        s = space.layout.subblock_factor
        for decision in BASE_ONLY_POLICY.decide(space).values():
            block_base = space.layout.vpn_of_block(decision.vpbn)
            for vpn in range(block_base, block_base + s):
                if space.get(vpn) is not None:
                    slow._base[vpn] = space.get(vpn)
        assert list(fast._base.items()) == list(slow._base.items())
        assert fast._wide == {}


# ---------------------------------------------------------------------------
# Non-empty tables: a shared arena under departures, reclaim and refault
# ---------------------------------------------------------------------------
def arena_steps():
    """Admit, depart, re-admit under pressure, then refault."""
    def admit(tid):
        return lambda arena: arena.admit(Tenant(tid, seed=3, footprint=40))

    def depart(tid):
        return lambda arena: arena.depart(tid)

    def refault_all(arena):
        return {
            tid: arena.refault(tid, sorted(arena.evicted_for(tid)))
            for tid in sorted(arena._resident)
        }

    return [admit(0), admit(1), admit(2), depart(1), admit(3), admit(4),
            admit(5), refault_all, depart(0), admit(6), refault_all]


@pytest.mark.parametrize("name", sorted(ALL_TABLES))
def test_arena_lifecycle_matches_loop(name):
    def make():
        # 200 frames for six 40-page tenants: admissions must reclaim.
        return SharedArena(ALL_TABLES[name](32), FrameAllocator(200))

    bulk, loop = make(), make()
    oracle(loop.table)
    for step in arena_steps():
        assert outcome(step, bulk) == outcome(step, loop)
        assert state(bulk.table) == state(loop.table)
    assert bulk.stats == loop.stats
    assert bulk.stats.reclaims > 0 and bulk.stats.refaulted_ptes > 0


# ---------------------------------------------------------------------------
# Batches that raise: same exception, same partial state
# ---------------------------------------------------------------------------
PRESENT = [(0x5000 + i, 0x100 + i) for i in range(24)]
FRESH = [(0x9000 + 3 * i, 0x300 + i) for i in range(40)]
MAX_VPN = LAYOUT.max_vpn
MAX_PPN = LAYOUT.max_ppn


def _long_with_late_duplicate():
    batch = [(0x20_0000 + i, 0x1000 + i) for i in range(BULK_CHUNK + 50)]
    return batch + [batch[7]]


BAD_BATCHES = {
    "duplicate-in-batch": FRESH[:10] + [FRESH[3]] + FRESH[10:],
    "duplicate-of-present": FRESH[:10] + [PRESENT[5]] + FRESH[10:],
    "duplicate-across-chunks": _long_with_late_duplicate(),
    "negative-vpn": FRESH[:5] + [(-1, 3)] + FRESH[5:],
    "vpn-too-large": FRESH[:5] + [(MAX_VPN + 1, 3)] + FRESH[5:],
    "ppn-too-large": FRESH[:5] + [(0x7777, MAX_PPN + 1)] + FRESH[5:],
    "negative-mapping-ppn": FRESH[:5] + [(0x7777, Mapping(-2, 1))],
    "float-vpn": FRESH[:5] + [(0x7777 + 0.5, 3)] + FRESH[5:],
    "numpy-vpn": FRESH[:5] + [(np.int64(0x7777), 3)] + FRESH[5:],
    "short-item": FRESH[:5] + [(0x7777,)] + FRESH[5:],
    "long-item": FRESH[:5] + [(0x7777, 3, 4)] + FRESH[5:],
}

GOOD_BATCHES = {
    "empty": [],
    "pairs": FRESH,
    "mappings": [(vpn, Mapping(ppn, 0x3)) for vpn, ppn in FRESH],
    "mixed": [(vpn, Mapping(ppn, 0x5) if vpn % 2 else ppn) for vpn, ppn in FRESH],
    "extreme-range": [(0, 0), (MAX_VPN, MAX_PPN), (MAX_VPN - 1, 1)],
    "two-chunks": [(0x40_0000 + 5 * i, i) for i in range(2 * BULK_CHUNK + 3)],
}


@pytest.mark.parametrize("name", sorted(ALL_TABLES))
@pytest.mark.parametrize("batch", sorted({**BAD_BATCHES, **GOOD_BATCHES}))
@pytest.mark.parametrize("as_iterator", [False, True])
def test_batches_match_loop(name, batch, as_iterator):
    items = {**BAD_BATCHES, **GOOD_BATCHES}[batch]

    def bulk_insert(table):
        return table.insert_many(iter(items) if as_iterator else items, 0x5)

    assert_same(
        lambda: ALL_TABLES[name](16),
        lambda table: table.insert_many(PRESENT),
        bulk_insert,
    )


def test_bad_batches_raise():
    """The error cases really are errors (the comparison is not vacuous)."""
    for items in BAD_BATCHES.values():
        table = HashedPageTable(LAYOUT)
        table.insert_many(PRESENT)
        with pytest.raises(Exception):
            table.insert_many(items)


def test_tables_without_a_bulk_path_take_the_loop():
    grain16 = HashedPageTable(LAYOUT, grain=16)
    with pytest.raises(Exception) as bulk_error:
        grain16.insert_many(FRESH)
    with pytest.raises(Exception) as loop_error:
        oracle(HashedPageTable(LAYOUT, grain=16)).insert_many(FRESH)
    assert str(bulk_error.value) == str(loop_error.value)
    assert grain16.stats.inserts == 0

    no_base = MultiplePageTables([HashedPageTable(LAYOUT, grain=16)])
    assert no_base.insert_many([]) == 0
    assert_same(
        lambda: MultiplePageTables([HashedPageTable(LAYOUT, grain=16)]),
        lambda table: table.insert_many(FRESH),
    )


def test_software_tlb_evicts_cached_tags():
    """Pages inserted behind a warm slot cache evict their blocks' tags."""
    def warm(table):
        table.insert_many(PRESENT)  # pages 0-15 of block 0x500, 0-7 of 0x501
        for vpn, _ in PRESENT:
            table.lookup(vpn)

    rest_of_block = [(0x5018 + i, 0x200 + i) for i in range(8)]
    bulk, _ = assert_same(
        lambda: WRAPPERS["swtlb16-clustered"](16),
        warm,
        lambda table: table.insert_many(rest_of_block + FRESH),
    )
    cached = {slot.tag for ways in bulk._sets for slot in ways}
    assert 0x500 in cached and 0x501 not in cached
    assert bulk.stats.inserts == len(PRESENT) + len(rest_of_block) + len(FRESH)


# ---------------------------------------------------------------------------
# Random batches
# ---------------------------------------------------------------------------
#: A few regions, so random pages share blocks, leaves and buckets.
_REGIONS = (0, 0x3_0000, 0xF_FFFF_0000, MAX_VPN - 0x3F)

_vpns = st.builds(
    lambda region, offset: _REGIONS[region] + offset,
    st.integers(0, len(_REGIONS) - 1), st.integers(0, 0x3F),
)


@settings(max_examples=60, deadline=None)
@given(
    present=st.lists(_vpns, unique=True, max_size=40),
    batch=st.lists(_vpns, max_size=80),
    name=st.sampled_from(sorted(ALL_TABLES)),
    buckets=st.sampled_from([1, 3, 64]),
    use_mappings=st.booleans(),
)
def test_random_batches_match_loop(present, batch, name, buckets, use_mappings):
    def items(vpns, salt):
        return [
            (vpn, Mapping(vpn ^ salt, vpn & 0xF) if use_mappings else vpn ^ salt)
            for vpn in vpns
        ]

    assert_same(
        lambda: ALL_TABLES[name](buckets),
        lambda table: table.insert_many(items(present, 0x55)),
        lambda table: table.insert_many(items(batch, 0xAA), 0x3),
    )


# ---------------------------------------------------------------------------
# The oracle has teeth
# ---------------------------------------------------------------------------
class ReversedChains(HashedPageTable):
    """Sabotage: a bulk insert that links each bucket's chain backwards."""

    def _insert_chunk(self, *columns):
        inserted = super()._insert_chunk(*columns)
        for chain in self._buckets.values():
            chain.reverse()
        return inserted


def test_reversed_chain_order_changes_replayed_probes():
    space = union_space("mp3d")
    tmap = TranslationMap.from_space(space, None)
    sabotaged = ReversedChains(LAYOUT, num_buckets=64)
    honest = HashedPageTable(LAYOUT, num_buckets=64)
    for table in (sabotaged, honest):
        tmap.populate(table, base_pages_only=True)
    # Same contents, same counters: only chain order differs ...
    assert sabotaged.stats == honest.stats
    assert sabotaged.size_bytes() == honest.size_bytes()
    assert state(sabotaged) != state(honest)
    # ... and replaying the pages populated first shows it in probes.
    first = np.array(list(tmap._base)[: len(tmap._base) // 4], dtype=np.int64)
    stream = MissStream(
        trace_name="bulk", tlb_description="first-inserted pages",
        vpns=first, block_miss=np.zeros(first.shape[0], dtype=bool),
        accesses=int(first.shape[0]), misses=int(first.shape[0]),
        tlb_block_misses=0, tlb_subblock_misses=0,
    )
    assert (
        replay_misses(stream, sabotaged).probes
        > replay_misses(stream, honest).probes
    )
