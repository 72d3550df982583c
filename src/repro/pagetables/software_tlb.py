"""Software TLBs as native page tables and as front-end caches (§2, §7).

A software TLB (swTLB, TSB, STLB, PowerPC page table) eliminates the hashed
page table's next pointers by pre-allocating a fixed number of PTE slots
per bucket — a direct-indexed, set-associative, memory-resident level-two
TLB.  A hit costs a single memory access (one cache line holding the whole
set); misses fall through to a backing page table.

Two §7 observations shape the design:

- "The use of software TLBs reduces the frequency of page table accesses
  and the importance of page table access time" — so the backing store may
  be **any** page table, including a slow forward-mapped tree; pass it as
  ``backing``.
- "A software TLB allows the choice of a larger subblock factor ... or
  makes it practical to use a slower forward-mapped page table" — the
  ``grain`` parameter stores clustered-style block entries in the slots.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from typing import Callable, Iterable, Iterator, List, Optional

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS
from repro.errors import ConfigurationError, PageFaultError
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.pagetables.base import BulkItem, LookupResult, PageTable, WalkOutcome
from repro.pagetables.hashed import HashedPageTable, multiplicative_hash
from repro.pagetables.pte import PTEKind

#: Bytes per software-TLB slot: eight-byte tag plus eight-byte data.
SLOT_BYTES = 16


@dataclass
class _Slot:
    """One cached translation record: the payload of a swTLB slot."""

    tag: int
    kind: PTEKind
    base_vpn: int
    npages: int
    base_ppn: int
    attrs: int
    valid_mask: int

    def result_for(self, vpn: int, lines: int, probes: int
                   ) -> Optional[LookupResult]:
        if not self.base_vpn <= vpn < self.base_vpn + self.npages:
            return None
        boff = vpn - self.base_vpn
        if not (self.valid_mask >> boff) & 1:
            return None
        return LookupResult(
            vpn=vpn, ppn=self.base_ppn + boff, attrs=self.attrs,
            kind=self.kind, base_vpn=self.base_vpn, npages=self.npages,
            base_ppn=self.base_ppn, valid_mask=self.valid_mask,
            cache_lines=lines, probes=probes,
        )

    @classmethod
    def from_result(cls, tag: int, result: LookupResult) -> "_Slot":
        return cls(
            tag=tag, kind=result.kind, base_vpn=result.base_vpn,
            npages=result.npages, base_ppn=result.base_ppn,
            attrs=result.attrs, valid_mask=result.valid_mask,
        )


class SoftwareTLBTable(PageTable):
    """Set-associative software TLB over a backing page table.

    Parameters
    ----------
    num_sets, associativity:
        Geometry of the direct-indexed array; UltraSPARC's TSB is
        direct-mapped (associativity 1), PowerPC uses 8-way sets.
    grain:
        Pages per slot tag; 1 for conventional PTEs, the subblock factor
        for clustered-style entries.
    backing:
        The authoritative page table behind the cache.  Defaults to a
        hashed page table of matching grain; pass e.g. a
        :class:`~repro.pagetables.forward.ForwardMappedPageTable` to model
        §7's swTLB-over-slow-table configuration.
    """

    name = "software-tlb"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        num_sets: int = 2048,
        associativity: int = 2,
        grain: int = 1,
        hash_fn: Callable[[int, int], int] = multiplicative_hash,
        backing: Optional[PageTable] = None,
    ):
        super().__init__(layout, cache)
        if num_sets < 1 or associativity < 1:
            raise ConfigurationError(
                f"invalid geometry: {num_sets} sets x {associativity} ways"
            )
        if grain < 1 or grain & (grain - 1):
            raise ConfigurationError(f"grain must be a power of two, got {grain}")
        self.num_sets = num_sets
        self.associativity = associativity
        self.grain = grain
        self.hash_fn = hash_fn
        if backing is None:
            backing = HashedPageTable(
                layout, cache, num_buckets=max(256, num_sets // 2),
                grain=grain, hash_fn=hash_fn,
            )
        if backing.layout is not layout:
            raise ConfigurationError(
                "backing table must share the software TLB's address layout"
            )
        self.backing = backing
        #: _sets[i] holds at most ``associativity`` slots, MRU last.
        self._sets: List[List[_Slot]] = [[] for _ in range(num_sets)]
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    def _set_of(self, tag: int) -> int:
        return self.hash_fn(tag, self.num_sets)

    def _set_lines(self) -> int:
        """Reading a whole set costs however many lines it spans."""
        return self.cache.lines_touched([(0, SLOT_BYTES * self.associativity)])

    def _walk(self, vpn: int) -> WalkOutcome:
        tag = vpn // self.grain
        ways = self._sets[self._set_of(tag)]
        lines = self._set_lines()
        probes = 1
        for i, slot in enumerate(ways):
            if slot.tag != tag:
                continue
            result = slot.result_for(vpn, lines, probes)
            if result is None:
                break  # tag matched, page invalid: consult the backing
            ways.append(ways.pop(i))  # LRU bump
            self.hits += 1
            return result, lines, probes
        # Software-TLB miss: walk the backing table and refill the set.
        self.misses += 1
        result, back_lines, back_probes = self.backing._walk(vpn)
        lines += back_lines
        probes += back_probes
        if result is None:
            return None, lines, probes
        self._install(_Slot.from_result(tag, result))
        final = LookupResult(
            vpn=result.vpn, ppn=result.ppn, attrs=result.attrs,
            kind=result.kind, base_vpn=result.base_vpn, npages=result.npages,
            base_ppn=result.base_ppn, valid_mask=result.valid_mask,
            cache_lines=lines, probes=probes,
        )
        return final, lines, probes

    def _install(self, slot: _Slot) -> None:
        ways = self._sets[self._set_of(slot.tag)]
        for i, existing in enumerate(ways):
            if existing.tag == slot.tag:
                del ways[i]
                break
        if len(ways) >= self.associativity:
            ways.pop(0)
        ways.append(slot)

    def _evict(self, tag: int) -> None:
        ways = self._sets[self._set_of(tag)]
        for i, slot in enumerate(ways):
            if slot.tag == tag:
                del ways[i]
                return

    # ------------------------------------------------------------------
    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping to the backing table."""
        self.backing.insert(vpn, ppn, attrs)
        self.stats.inserts += 1
        self._evict(vpn // self.grain)  # keep the cache coherent

    def insert_many(
        self, items: Iterable[BulkItem], attrs: int = DEFAULT_ATTRS
    ) -> int:
        """Bulk-insert into the backing table, then evict covered tags.

        Exactly the :meth:`insert` loop: the backing's ``stats.inserts``
        counts the pages it took (also when it raises part-way), and each
        of them is counted here and has its tag evicted.  Eviction is
        skipped while every set is empty, when it cannot change anything.
        """
        evict = any(self._sets)
        if evict and isinstance(items, Iterator):
            items = list(items)
        before = self.backing.stats.inserts
        try:
            return self.backing.insert_many(items, attrs)
        finally:
            done = self.backing.stats.inserts - before
            self.stats.inserts += done
            if evict:
                for vpn, _ in islice(items, done):
                    self._evict(vpn // self.grain)

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage PTE to the backing table."""
        self.backing.insert_superpage(base_vpn, npages, base_ppn, attrs)
        self.stats.inserts += 1
        for vpn in range(base_vpn, base_vpn + npages, self.grain):
            self._evict(vpn // self.grain)

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock PTE to the backing table."""
        self.backing.insert_partial_subblock(vpbn, valid_mask, base_ppn, attrs)
        self.stats.inserts += 1
        block_base = self.layout.vpn_of_block(vpbn)
        self._evict(block_base // self.grain)

    def remove(self, vpn: int) -> None:
        """Remove a mapping from the backing table and invalidate slots."""
        self._evict(vpn // self.grain)
        try:
            self.backing.remove(vpn)
        finally:
            self.stats.removes += 1

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Pre-allocated slot array plus the backing table."""
        array = self.num_sets * self.associativity * SLOT_BYTES
        return array + self.backing.size_bytes()

    def hit_rate(self) -> float:
        """Fraction of walks served by the slot array alone."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def describe(self) -> str:
        grain = f", grain {self.grain}" if self.grain != 1 else ""
        return (
            f"{self.name} ({self.num_sets} sets x {self.associativity} ways"
            f"{grain}) over {self.backing.describe()}"
        )
