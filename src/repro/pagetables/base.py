"""The page table interface shared by every design in the library.

All page tables — linear, forward-mapped, hashed, inverted, software-TLB,
and clustered — implement :class:`PageTable`.  The contract mirrors what
the paper's software TLB miss handler needs:

- :meth:`PageTable.lookup` services one TLB miss: given only the faulting
  VPN (the handler does not know the page size up front, §4.1), find the
  governing PTE and report what the TLB should load — a base page, a
  superpage, or a (partial-)subblock entry — along with how many cache
  lines the walk touched.
- :meth:`PageTable.lookup_block` services a complete-subblock TLB's block
  miss with prefetch (§4.4): fetch every mapping sharing the faulting
  page block's tag.
- ``insert``/``remove``/``insert_superpage``/``insert_partial_subblock``
  are the operating-system-facing maintenance operations (§3.1), each
  reporting its own cost so the range-operation comparisons can be made.
- :meth:`PageTable.size_bytes` accounts memory under the paper's §6.1
  assumptions (eight-byte mapping information, eight-byte pointers).

Implementations provide the non-recording :meth:`PageTable._walk`; the
public :meth:`PageTable.lookup` wraps it with statistics and fault
raising so every table records costs identically.
"""

from __future__ import annotations

import abc
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from typing import Iterable, List, Optional, Sequence, Tuple, Union

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import PageFaultError
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.obs import trace as _trace
from repro.pagetables.pte import PTEKind


@dataclass(frozen=True)
class LookupResult:
    """What one TLB-miss walk found.

    Attributes
    ----------
    vpn, ppn, attrs:
        The faulting page's resolved translation.
    kind:
        Which PTE format supplied it; the miss handler uses this to choose
        the TLB entry format.
    base_vpn, npages:
        The virtual range covered by the PTE (``npages`` is 1 for a base
        PTE, the superpage size for a superpage, the subblock factor for a
        partial-subblock PTE).
    base_ppn:
        Physical page of ``base_vpn``; for superpage/subblock entries the
        whole range is properly placed so ``ppn = base_ppn + offset``.
    valid_mask:
        For partial-subblock results, which base pages of the block are
        valid (bit *i* covers ``base_vpn + i``).  For other kinds it is the
        single bit of the faulting page.
    cache_lines:
        Cache lines touched during this walk (the paper's §6 metric).
    probes:
        Page-table nodes examined (hash-chain elements or tree levels).
    """

    vpn: int
    ppn: int
    attrs: int
    kind: PTEKind
    base_vpn: int
    npages: int
    base_ppn: int
    valid_mask: int
    cache_lines: int
    probes: int

    @property
    def mapping(self) -> Mapping:
        """The faulting page's mapping as an :class:`~repro.addr.space.Mapping`."""
        return Mapping(self.ppn, self.attrs)


@dataclass(frozen=True)
class BlockLookupResult:
    """Result of a block-granularity walk for complete-subblock prefetch.

    ``mappings`` has one slot per base page of the block, ``None`` where no
    valid mapping exists.
    """

    vpbn: int
    mappings: Tuple[Optional[Mapping], ...]
    cache_lines: int
    probes: int

    @property
    def valid_mask(self) -> int:
        """Bit *i* set when base page *i* of the block has a mapping."""
        return sequence_to_mask(self.mappings)


@dataclass
class WalkStats:
    """Accumulated page-table activity counters.

    ``cache_lines``/``probes`` accumulate over successful lookups *and*
    faults (a fault still walks the table).  ``op_*`` counters track the
    §3.1 maintenance costs: nodes visited and allocated by insert/remove
    traffic, and hash-bucket lock acquisitions for range operations.

    The ``numa_*`` counters stay zero on the default single-node
    machine; a table with an attached NUMA coster (see
    :meth:`PageTable.attach_numa`) additionally reports latency-weighted
    cycles and per-node line counts alongside the untouched
    ``cache_lines`` metric.
    """

    lookups: int = 0
    faults: int = 0
    cache_lines: int = 0
    probes: int = 0
    inserts: int = 0
    removes: int = 0
    op_nodes_visited: int = 0
    op_nodes_allocated: int = 0
    op_locks_acquired: int = 0
    numa_cycles: int = 0
    numa_lines_by_node: Counter = field(default_factory=Counter)

    def record_walk(self, cache_lines: int, probes: int, fault: bool) -> None:
        """Record one translation walk."""
        self.lookups += 1
        self.cache_lines += cache_lines
        self.probes += probes
        if fault:
            self.faults += 1

    def record_numa(self, cycles: int, by_node: "Counter") -> None:
        """Record one walk's latency-weighted cost (NUMA costing only)."""
        self.numa_cycles += cycles
        self.numa_lines_by_node.update(by_node)

    @property
    def cycles_per_lookup(self) -> float:
        """Latency-weighted cycles per walk (0 without NUMA costing)."""
        if self.lookups == 0:
            return 0.0
        return self.numa_cycles / self.lookups

    @property
    def lines_per_lookup(self) -> float:
        """Average cache lines per walk — the paper's Figure 11 metric."""
        if self.lookups == 0:
            return 0.0
        return self.cache_lines / self.lookups

    @property
    def probes_per_lookup(self) -> float:
        """Average nodes examined per walk."""
        if self.lookups == 0:
            return 0.0
        return self.probes / self.lookups

    def reset(self) -> None:
        """Zero every counter."""
        self.lookups = 0
        self.faults = 0
        self.cache_lines = 0
        self.probes = 0
        self.inserts = 0
        self.removes = 0
        self.op_nodes_visited = 0
        self.op_nodes_allocated = 0
        self.op_locks_acquired = 0
        self.numa_cycles = 0
        self.numa_lines_by_node = Counter()


#: Type of a raw walk: (result or None on fault, cache lines, probes).
WalkOutcome = Tuple[Optional[LookupResult], int, int]

#: What one :meth:`PageTable.insert_many` item maps its VPN to: a PPN
#: (inserted with the call's ``attrs``) or a :class:`Mapping`.
BulkTarget = Union[int, Mapping]
#: One :meth:`PageTable.insert_many` item: ``(vpn, target)``.
BulkItem = Tuple[int, BulkTarget]

#: Items per chunk of an array-driven bulk insert.
BULK_CHUNK = 4096


def _bulk_columns(
    batch: List[BulkItem], layout: AddressLayout
) -> Optional[Tuple[List[int], List[int], List[BulkTarget]]]:
    """Split one bulk-insert chunk into VPN, PPN and target columns.

    Returns None unless every item is a pair, every VPN and PPN is a
    plain ``int`` in range, and no VPN repeats: the chunks on which the
    :meth:`PageTable.insert` loop raises no unpacking, range or
    intra-chunk duplicate error.
    """
    try:
        vpns = [vpn for vpn, _ in batch]
        targets = [target for _, target in batch]
    except (TypeError, ValueError):
        return None
    ppns = [
        target.ppn if isinstance(target, Mapping) else target
        for target in targets
    ]
    for column, top in ((vpns, layout.max_vpn), (ppns, layout.max_ppn)):
        if set(map(type, column)) != {int}:
            return None
        if min(column) < 0 or max(column) > top:
            return None
    if len(set(vpns)) != len(vpns):
        return None
    return vpns, ppns, targets


def as_mappings(targets: List[BulkTarget], attrs: int) -> List[Mapping]:
    """The :class:`Mapping` of every bulk target, sharing given ones."""
    return [
        target if isinstance(target, Mapping) else Mapping(target, attrs)
        for target in targets
    ]


class PageTable(abc.ABC):
    """Abstract base for all page table organisations."""

    #: Human-readable name used in reports and figure legends.
    name: str = "abstract"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
    ):
        self.layout = layout
        self.cache = cache
        self.stats = WalkStats()
        #: Optional NUMA coster + accessing node; see :meth:`attach_numa`.
        self._numa_coster = None
        self.numa_node = 0

    # ------------------------------------------------------------------
    # NUMA costing (opt-in; absent by default)
    # ------------------------------------------------------------------
    def attach_numa(self, coster, node: int = 0) -> "PageTable":
        """Attach a :class:`~repro.numa.costing.WalkCoster` to this table.

        Every subsequent walk is *additionally* charged latency-weighted
        cycles into ``stats.numa_cycles``/``numa_lines_by_node`` as if
        issued from NUMA node ``node`` (mutable via ``self.numa_node``).
        The table is treated as one placement unit — exact for
        first-touch placement; byte-granular attribution lives in
        :mod:`repro.numa.replay`.  ``cache_lines`` is never affected.
        Returns ``self`` for chaining.
        """
        self._numa_coster = coster
        self.numa_node = node
        return self

    def _charge_numa(self, lines: int) -> None:
        if self._numa_coster is None or lines <= 0:
            return
        coster_stats = self._numa_coster.stats
        before_cycles = coster_stats.cycles
        before_nodes = dict(coster_stats.lines_by_node)
        self._numa_coster.charge_lines(self.numa_node, lines)
        served = Counter(
            {
                node: count - before_nodes.get(node, 0)
                for node, count in coster_stats.lines_by_node.items()
                if count != before_nodes.get(node, 0)
            }
        )
        self.stats.record_numa(coster_stats.cycles - before_cycles, served)

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def _walk(self, vpn: int) -> WalkOutcome:
        """Walk the table without recording statistics.

        Returns ``(result, cache_lines, probes)``; ``result`` is None when
        the walk ends in a page fault (the fault path still reports the
        lines and probes it consumed).
        """

    def lookup(self, vpn: int) -> LookupResult:
        """Service one TLB miss; raise :class:`PageFaultError` on no mapping."""
        result, lines, probes = self._walk(vpn)
        self.stats.record_walk(lines, probes, fault=result is None)
        self._charge_numa(lines)
        if _trace._ACTIVE is not None:
            _trace.emit(
                self.name, "walk", vpn,
                result.kind.name if result is not None else "fault",
                lines, probes, result is None, self.numa_node,
            )
        if result is None:
            raise PageFaultError(vpn)
        return result

    def _trace_block(
        self, vpbn: int, lines: int, probes: int, fault: bool
    ) -> None:
        """Emit one tracer event for a block fetch (no-op when disabled).

        Every ``lookup_block`` implementation calls this right after its
        ``stats.record_walk`` so traced block events carry exactly the
        lines the walk charged.
        """
        if _trace._ACTIVE is not None:
            _trace.emit(
                self.name, "block", self.layout.vpn_of_block(vpbn),
                "fault" if fault else PTEKind.BASE.name,
                lines, probes, fault, self.numa_node,
            )

    def lookup_block(self, vpbn: int) -> BlockLookupResult:
        """Fetch all mappings of one page block (complete-subblock prefetch).

        The default implementation performs one full walk per base page of
        the block — the cost the paper charges hashed page tables in Figure
        11d ("multiple probes ... sixteen").  Tables that store a block's
        mappings adjacently override this with a single-walk version.
        """
        mappings = []
        total_lines = 0
        total_probes = 0
        for vpn in self.layout.block_vpns(vpbn):
            result, lines, probes = self._walk(vpn)
            total_lines += lines
            total_probes += probes
            if result is None:
                mappings.append(None)
            else:
                mappings.append(Mapping(result.ppn, result.attrs))
        fault = all(m is None for m in mappings)
        self.stats.record_walk(total_lines, total_probes, fault)
        self._charge_numa(total_lines)
        self._trace_block(vpbn, total_lines, total_probes, fault)
        return BlockLookupResult(
            vpbn=vpbn,
            mappings=tuple(mappings),
            cache_lines=total_lines,
            probes=total_probes,
        )

    # ------------------------------------------------------------------
    # Maintenance (the OS-facing operations of §3.1)
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping."""

    @abc.abstractmethod
    def remove(self, vpn: int) -> None:
        """Remove the mapping covering ``vpn``; raise on absence."""

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits of the PTE governing ``vpn`` in place.

        The TLB miss handler's reference/modified-bit maintenance (§3.1:
        handlers "update reference and modified bits without acquiring
        any locks").  Returns the new attribute value.  Wide PTEs share
        one attribute field, so marking any covered page marks them all —
        and replicated wide PTEs must update every replica site (§4.3's
        multi-site update cost, charged to ``op_nodes_visited``).
        """
        raise NotImplementedError(
            f"{self.name} page table does not support in-place attribute "
            "updates"
        )

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage mapping.  Tables without native support raise."""
        raise NotImplementedError(
            f"{self.name} page table does not store superpage PTEs; "
            "wrap it in a strategy from repro.pagetables.strategies"
        )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock mapping.  Tables without support raise."""
        raise NotImplementedError(
            f"{self.name} page table does not store partial-subblock PTEs; "
            "wrap it in a strategy from repro.pagetables.strategies"
        )

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @abc.abstractmethod
    def size_bytes(self) -> int:
        """Memory used by the table under the paper's §6.1 assumptions."""

    def describe(self) -> str:
        """One-line human-readable description."""
        return f"{self.name} page table ({self.layout.describe()})"

    # ------------------------------------------------------------------
    # Bulk construction helpers
    # ------------------------------------------------------------------
    def populate(self, space) -> None:
        """Insert every base-page mapping of an address-space snapshot."""
        self.insert_many(space.items())

    def insert_many(
        self, items: Iterable[BulkItem], attrs: int = DEFAULT_ATTRS
    ) -> int:
        """Insert base-page mappings in bulk; returns how many.

        Each item is ``(vpn, ppn)``, inserted with ``attrs``, or
        ``(vpn, mapping)`` with a :class:`~repro.addr.space.Mapping`
        that carries its own attributes.  This is the one bulk
        construction API: translation-map population and tenant
        admission both go through it.  Semantics are exactly a loop over
        :meth:`insert`, and this loop is that definition: the hashed,
        clustered and forward-mapped tables override it with array-driven
        versions that must leave identical state, statistics and errors.
        """
        count = 0
        for vpn, target in items:
            if isinstance(target, Mapping):
                self.insert(vpn, target.ppn, target.attrs)
            else:
                self.insert(vpn, target, attrs)
            count += 1
        return count

    def _insert_bulk(self, items: Iterable[BulkItem], attrs: int) -> int:
        """Drive an array-driven :meth:`insert_many` chunk by chunk.

        The table's ``_insert_chunk(vpns, ppns, targets, attrs)`` inserts
        one chunk whose VPNs and PPNs are in range and distinct, or
        returns False without mutating anything when one of its VPNs is
        already mapped.  The first chunk that fails either check, and
        everything after it, goes through the :meth:`insert` loop, so
        errors and the partial state they leave are the loop's own.
        Chunks bound the per-item lists a bulk build holds at once.
        """
        count = 0
        rest = iter(items)
        while True:
            batch = list(islice(rest, BULK_CHUNK))
            if not batch:
                return count
            columns = _bulk_columns(batch, self.layout)
            if columns is None or not self._insert_chunk(*columns, attrs):
                return count + PageTable.insert_many(
                    self, chain(batch, rest), attrs
                )
            count += len(batch)

    def remove_many(self, vpns: Iterable[int]) -> int:
        """Remove the mappings covering ``vpns``; returns how many.

        Tenant teardown counterpart of :meth:`insert_many`; raises on the
        first absent mapping, like :meth:`remove`.
        """
        count = 0
        for vpn in vpns:
            self.remove(vpn)
            count += 1
        return count

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.describe()}>"


def sequence_to_mask(mappings: Sequence[Optional[Mapping]]) -> int:
    """Build a valid bit mask from a per-slot mapping sequence."""
    mask = 0
    for i, mapping in enumerate(mappings):
        if mapping is not None:
            mask |= 1 << i
    return mask


def base_result(
    vpn: int,
    mapping: Mapping,
    cache_lines: int,
    probes: int,
) -> LookupResult:
    """Convenience constructor for a single-base-page lookup result."""
    return LookupResult(
        vpn=vpn,
        ppn=mapping.ppn,
        attrs=mapping.attrs,
        kind=PTEKind.BASE,
        base_vpn=vpn,
        npages=1,
        base_ppn=mapping.ppn,
        valid_mask=1,
        cache_lines=cache_lines,
        probes=probes,
    )
