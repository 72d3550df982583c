"""Superpage/partial-subblock strategies for conventional page tables (§4.2).

Two strategies the paper describes work for *any* page table:

- **Replicate PTEs** — store the superpage (or partial-subblock) PTE at the
  page-table site of every base page it covers.  TLB misses find it exactly
  as they would a base PTE, so the miss penalty is unchanged; the costs are
  that page tables get no smaller and that updates touch many sites.
  :class:`ReplicatedPTEMixin` implements this for tables that store one
  cell per VPN (linear and forward-mapped tables).
- **Multiple page tables** — one table per page size, searched in order.
  :class:`MultiplePageTables` composes any tables this way; a miss in an
  earlier table adds its full walk cost to the TLB miss, which is exactly
  why Figure 11b/c show hashed page tables degrading.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence

from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import AlignmentError, ConfigurationError, PageFaultError
from repro.pagetables.base import (
    BlockLookupResult,
    BulkItem,
    LookupResult,
    PageTable,
    WalkOutcome,
)
from repro.pagetables.pte import PTEKind


@dataclass(frozen=True)
class ReplicaPTE:
    """A superpage or partial-subblock PTE replicated at a base-page site.

    Every base-page cell covered by the wide mapping stores (a reference
    to) the same replica, mirroring how the replicate-PTEs strategy writes
    the identical eight-byte PTE at each site.
    """

    kind: PTEKind
    base_vpn: int
    npages: int
    base_ppn: int
    attrs: int
    valid_mask: int

    def result_for(self, vpn: int, cache_lines: int, probes: int) -> LookupResult:
        """Lookup result when this replica is found at ``vpn``'s site."""
        return LookupResult(
            vpn=vpn,
            ppn=self.base_ppn + (vpn - self.base_vpn),
            attrs=self.attrs,
            kind=self.kind,
            base_vpn=self.base_vpn,
            npages=self.npages,
            base_ppn=self.base_ppn,
            valid_mask=self.valid_mask,
            cache_lines=cache_lines,
            probes=probes,
        )


def cell_result(vpn: int, cell, cache_lines: int, probes: int) -> LookupResult:
    """Build a lookup result from a per-VPN cell (Mapping or ReplicaPTE)."""
    if isinstance(cell, ReplicaPTE):
        return cell.result_for(vpn, cache_lines, probes)
    return LookupResult(
        vpn=vpn, ppn=cell.ppn, attrs=cell.attrs, kind=PTEKind.BASE,
        base_vpn=vpn, npages=1, base_ppn=cell.ppn, valid_mask=1,
        cache_lines=cache_lines, probes=probes,
    )


class ReplicatedPTEMixin:
    """Replicate-PTEs strategy for tables storing one cell per VPN.

    Host classes must provide ``layout``, ``stats``, a ``_store_cell(vpn,
    cell)`` primitive, and a ``_drop_cell(vpn)`` primitive; the mixin turns
    superpage and partial-subblock insertion into per-site replication.
    Hosts that additionally provide ``_load_cell(vpn)`` and
    ``_replace_cell(vpn, cell)`` get in-place attribute updates
    (:meth:`mark`) with correct multi-site replica semantics.
    """

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits; a replica updates *every* covered site.

        This is §4.3's cost made concrete: "adding or deleting a mapping
        that is part of a partial-subblock PTE always requires
        modification of multiple PTEs" — the same holds for attribute
        updates, charged to ``op_nodes_visited``.
        """
        from repro.errors import PageFaultError

        cell = self._load_cell(vpn)
        if cell is None:
            raise PageFaultError(vpn, f"no PTE for VPN {vpn:#x}")
        if isinstance(cell, ReplicaPTE):
            new_attrs = (cell.attrs | set_bits) & ~clear_bits
            replica = ReplicaPTE(
                kind=cell.kind, base_vpn=cell.base_vpn, npages=cell.npages,
                base_ppn=cell.base_ppn, attrs=new_attrs,
                valid_mask=cell.valid_mask,
            )
            for site in range(cell.base_vpn, cell.base_vpn + cell.npages):
                if self._load_cell(site) is cell:
                    self._replace_cell(site, replica)
            self.stats.op_nodes_visited += cell.npages
            return new_attrs
        new_attrs = (cell.attrs | set_bits) & ~clear_bits
        self._replace_cell(vpn, Mapping(cell.ppn, new_attrs))
        self.stats.op_nodes_visited += 1
        return new_attrs

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Store a superpage PTE at every covered base-page site."""
        if npages < 1 or npages & (npages - 1):
            raise AlignmentError(f"superpage page count {npages} not a power of two")
        if base_vpn % npages or base_ppn % npages:
            raise AlignmentError("superpage not naturally aligned")
        replica = ReplicaPTE(
            kind=PTEKind.SUPERPAGE, base_vpn=base_vpn, npages=npages,
            base_ppn=base_ppn, attrs=attrs, valid_mask=(1 << npages) - 1,
        )
        for vpn in range(base_vpn, base_vpn + npages):
            self._store_cell(vpn, replica)
        self.stats.inserts += 1

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Store a partial-subblock PTE at every *valid* base-page site.

        Per §4.3, adding or deleting a page of a replicated partial-subblock
        PTE requires touching every replica; the op counters reflect that.
        """
        if valid_mask == 0:
            raise ConfigurationError("partial-subblock PTE needs a non-empty mask")
        s = self.layout.subblock_factor
        if valid_mask >> s:
            raise ConfigurationError(
                f"valid mask {valid_mask:#x} wider than subblock factor {s}"
            )
        if base_ppn % s:
            raise AlignmentError("partial-subblock base PPN not block-aligned")
        base_vpn = self.layout.vpn_of_block(vpbn)
        replica = ReplicaPTE(
            kind=PTEKind.PARTIAL_SUBBLOCK, base_vpn=base_vpn, npages=s,
            base_ppn=base_ppn, attrs=attrs, valid_mask=valid_mask,
        )
        for boff in range(s):
            if (valid_mask >> boff) & 1:
                self._store_cell(base_vpn + boff, replica)
        self.stats.inserts += 1


class MultiplePageTables(PageTable):
    """The multiple-page-tables strategy (§4.2): one table per page size.

    ``tables`` are searched in order on every miss; the paper recommends
    ordering from the page size most- to least-likely to miss.  Walk cost
    is the *sum* of the walks through every table probed — the earlier
    tables' full miss cost is paid whenever the PTE lives in a later table.

    Base-page inserts go to the table whose ``grain`` is 1; superpage and
    partial-subblock inserts go to the first table that accepts them.
    """

    name = "multi-table"

    def __init__(self, tables: Sequence[PageTable], name: Optional[str] = None):
        if not tables:
            raise ConfigurationError("need at least one constituent table")
        first = tables[0]
        super().__init__(first.layout, first.cache)
        for table in tables:
            if table.layout is not first.layout:
                raise ConfigurationError(
                    "all constituent tables must share one address layout"
                )
        self.tables: List[PageTable] = list(tables)
        if name:
            self.name = name

    # ------------------------------------------------------------------
    def _walk(self, vpn: int) -> WalkOutcome:
        total_lines = 0
        total_probes = 0
        for table in self.tables:
            result, lines, probes = table._walk(vpn)
            total_lines += lines
            total_probes += probes
            if result is not None:
                final = LookupResult(
                    vpn=result.vpn, ppn=result.ppn, attrs=result.attrs,
                    kind=result.kind, base_vpn=result.base_vpn,
                    npages=result.npages, base_ppn=result.base_ppn,
                    valid_mask=result.valid_mask,
                    cache_lines=total_lines, probes=total_probes,
                )
                return final, total_lines, total_probes
        return None, total_lines, total_probes

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Block fetch: merge every constituent table's view of the block."""
        from repro.obs import trace as _trace

        s = self.layout.subblock_factor
        merged: List[Optional[Mapping]] = [None] * s
        total_lines = 0
        total_probes = 0
        found = False
        # The constituents' walks are this table's one block fetch; only
        # the merged outer event may reach the tracer.
        with _trace.suppressed():
            for table in self.tables:
                result = table.lookup_block(vpbn)
                total_lines += result.cache_lines
                total_probes += result.probes
                for i, mapping in enumerate(result.mappings):
                    if mapping is not None:
                        found = True
                        if merged[i] is None:
                            merged[i] = mapping
        self.stats.record_walk(total_lines, total_probes, fault=not found)
        self._trace_block(vpbn, total_lines, total_probes, not found)
        return BlockLookupResult(vpbn, tuple(merged), total_lines, total_probes)

    # ------------------------------------------------------------------
    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Route a base-page mapping to the base-grain table."""
        for table in self.tables:
            if getattr(table, "grain", 1) == 1:
                table.insert(vpn, ppn, attrs)
                self.stats.inserts += 1
                return
        raise ConfigurationError("no constituent table accepts base-page PTEs")

    def insert_many(
        self, items: Iterable[BulkItem], attrs: int = DEFAULT_ATTRS
    ) -> int:
        """Route a bulk base-page insert to the base-grain table.

        Exactly the :meth:`insert` loop: the constituent's
        ``stats.inserts`` counts the pages it took, also when it raises
        part-way, and this table counts the same.
        """
        for table in self.tables:
            if getattr(table, "grain", 1) == 1:
                before = table.stats.inserts
                try:
                    return table.insert_many(items, attrs)
                finally:
                    self.stats.inserts += table.stats.inserts - before
        return super().insert_many(items, attrs)

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Route a superpage PTE to the first table that accepts it."""
        for table in self.tables:
            try:
                table.insert_superpage(base_vpn, npages, base_ppn, attrs)
            except (NotImplementedError, AlignmentError):
                continue
            self.stats.inserts += 1
            return
        raise AlignmentError(
            f"no constituent table holds {npages}-page superpages"
        )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Route a partial-subblock PTE to the first table that accepts it."""
        for table in self.tables:
            try:
                table.insert_partial_subblock(vpbn, valid_mask, base_ppn, attrs)
            except (NotImplementedError, AlignmentError):
                continue
            self.stats.inserts += 1
            return
        raise AlignmentError("no constituent table holds partial-subblock PTEs")

    def remove(self, vpn: int) -> None:
        """Remove from whichever constituent table maps ``vpn``."""
        for table in self.tables:
            try:
                table.remove(vpn)
            except PageFaultError:
                continue
            self.stats.removes += 1
            return
        raise PageFaultError(vpn, f"no constituent table maps VPN {vpn:#x}")

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attributes in whichever constituent table maps ``vpn``."""
        for table in self.tables:
            try:
                return table.mark(vpn, set_bits, clear_bits)
            except PageFaultError:
                continue
        raise PageFaultError(vpn, f"no constituent table maps VPN {vpn:#x}")

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Sum of the constituent tables' sizes — the spatial overhead of
        supporting many page tables that §4.2 warns about."""
        return sum(table.size_bytes() for table in self.tables)

    def describe(self) -> str:
        inner = " + ".join(table.describe() for table in self.tables)
        return f"{self.name} [{inner}]"
