"""Hashed (inverted-style) page tables with chaining — the paper's §2 baseline.

The simplest large-address-space page table: an open hash table whose
buckets are chains of 24-byte PTE nodes (eight-byte tag, eight-byte next
pointer, eight bytes of mapping information).  The TLB miss handler hashes
the faulting VPN to a bucket and walks the chain comparing tags::

    for (ptr = &hash_table[h(VPN)]; ptr != NULL; ptr = ptr->next)
        if (tag_match(ptr, faulting_tag))
            return(ptr->mapping);
    pagefault();

Three variants from the paper are provided:

- :class:`HashedPageTable` — the plain table.  A ``grain`` parameter lets
  the same structure serve as the *64 KB page table* of the
  multiple-page-table superpage strategy (§4.2): with ``grain = 16`` its
  tags are page-block numbers and its nodes hold superpage or
  partial-subblock PTEs.
- ``packed=True`` — the §7 optimisation that squeezes tag and next pointer
  into eight bytes together, cutting node size from 24 to 16 bytes (33 %)
  without changing the access pattern.
- :class:`SuperpageIndexHashedPageTable` — the §4.2 *superpage-index*
  variant that always hashes on a fixed superpage index so base, superpage,
  and partial-subblock PTEs for one region share a bucket (at the price of
  longer chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional

import numpy as np

from repro.addr.layout import AddressLayout, DEFAULT_LAYOUT
from repro.addr.space import DEFAULT_ATTRS, Mapping
from repro.errors import (
    AlignmentError,
    ConfigurationError,
    MappingExistsError,
    PageFaultError,
)
from repro.mmu.batch_kernels import fib_buckets
from repro.mmu.cache_model import CacheModel, DEFAULT_CACHE
from repro.pagetables.base import (
    BulkItem,
    BulkTarget,
    LookupResult,
    PageTable,
    WalkOutcome,
)
from repro.pagetables.pte import PTEKind

#: Node size for the paper's standard hashed PTE: tag + next + mapping.
HASHED_NODE_BYTES = 24
#: Node size with the §7 packed tag/next optimisation.
PACKED_NODE_BYTES = 16

_GOLDEN = 0x9E3779B97F4A7C15  # 2^64 / phi, Fibonacci hashing multiplier
_MASK64 = (1 << 64) - 1


def multiplicative_hash(key: int, num_buckets: int) -> int:
    """Fibonacci (multiplicative) hashing of a tag onto a bucket index.

    Deterministic, fast, and mixes the low-entropy high bits of sparse
    64-bit VPNs well — the qualities an OS hash function needs.  The
    high product bits are folded down before reduction: the low bits of
    ``key * G (mod 2^64)`` alone depend only on the low bits of the key,
    which would make tags that differ in high bits (e.g. per-process
    address-space slices) collide systematically.
    """
    product = (key * _GOLDEN) & _MASK64
    product ^= product >> 32
    product ^= product >> 16
    return product % num_buckets


def bucket_ids(
    keys: np.ndarray, hash_fn: Callable[[int, int], int], num_buckets: int
) -> List[int]:
    """``hash_fn(key, num_buckets)`` of every key, vectorised for the
    default :func:`multiplicative_hash`."""
    if hash_fn is multiplicative_hash:
        return fib_buckets(keys, num_buckets).tolist()
    return [hash_fn(key, num_buckets) for key in keys.tolist()]


@dataclass
class HashNode:
    """One chain element: a tag plus one PTE worth of mapping information.

    ``tag`` is the VPN divided by the table grain.  ``kind`` selects how
    the mapping fields are interpreted:

    - BASE: ``ppn``/``attrs`` map the single page ``tag * grain``.
    - SUPERPAGE: ``ppn`` maps ``npages`` pages starting at ``tag * grain``.
    - PARTIAL_SUBBLOCK: ``ppn`` is base of a properly-placed block;
      ``valid_mask`` says which pages exist.
    """

    tag: int
    kind: PTEKind
    ppn: int
    attrs: int
    npages: int = 1
    valid_mask: int = 0


class HashedPageTable(PageTable):
    """Open-hash page table with chained 24-byte PTEs.

    Parameters
    ----------
    num_buckets:
        Bucket count; the paper's base configuration uses 4096.
    grain:
        Pages per tag.  1 (default) gives the ordinary base-page table;
        ``layout.subblock_factor`` gives the block-granularity table used
        as the second table of the multiple-page-table strategy.
    packed:
        Use the §7 16-byte packed node format for size accounting.
    hash_fn:
        ``(tag, num_buckets) -> bucket``; defaults to Fibonacci hashing.
    count_bucket_array:
        When True, include the bucket-head array in :meth:`size_bytes`.
        The paper's size formula (Table 2) charges only ``24 ×
        Nactive(1)``, so the default is False.
    """

    name = "hashed"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        num_buckets: int = 4096,
        grain: int = 1,
        packed: bool = False,
        hash_fn: Callable[[int, int], int] = multiplicative_hash,
        count_bucket_array: bool = False,
    ):
        super().__init__(layout, cache)
        if num_buckets < 1:
            raise ConfigurationError(f"need at least one bucket, got {num_buckets}")
        if grain < 1 or (grain & (grain - 1)):
            raise ConfigurationError(f"grain must be a power of two, got {grain}")
        self.num_buckets = num_buckets
        self.grain = grain
        self.packed = packed
        self.hash_fn = hash_fn
        self.count_bucket_array = count_bucket_array
        self._buckets: Dict[int, List[HashNode]] = {}
        self._node_count = 0

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _tag_of(self, vpn: int) -> int:
        return vpn // self.grain

    def _bucket_of(self, tag: int) -> int:
        return self.hash_fn(tag, self.num_buckets)

    def _bucket_ids(self, tags: List[int]) -> List[int]:
        """:meth:`_bucket_of` of every tag, vectorised."""
        keys = np.array(tags, dtype=np.int64)
        return bucket_ids(keys, self.hash_fn, self.num_buckets)

    def _chain(self, tag: int) -> List[HashNode]:
        return self._buckets.get(self._bucket_of(tag), [])

    def _find(self, tag: int) -> tuple:
        """Return (node or None, probes).  Probing an empty bucket still
        reads the (invalid) head node: one probe, one line."""
        chain = self._chain(tag)
        if not chain:
            return None, 1
        for i, node in enumerate(chain):
            if node.tag == tag:
                return node, i + 1
        return None, len(chain)

    def _node_to_result(self, vpn: int, node: HashNode, lines: int, probes: int
                        ) -> Optional[LookupResult]:
        base_vpn = node.tag * self.grain
        boff = vpn - base_vpn
        if node.kind is PTEKind.BASE:
            return LookupResult(
                vpn=vpn, ppn=node.ppn, attrs=node.attrs, kind=PTEKind.BASE,
                base_vpn=base_vpn, npages=1, base_ppn=node.ppn, valid_mask=1,
                cache_lines=lines, probes=probes,
            )
        if node.kind is PTEKind.SUPERPAGE:
            if boff >= node.npages:
                return None
            return LookupResult(
                vpn=vpn, ppn=node.ppn + boff, attrs=node.attrs,
                kind=PTEKind.SUPERPAGE, base_vpn=base_vpn, npages=node.npages,
                base_ppn=node.ppn, valid_mask=(1 << node.npages) - 1,
                cache_lines=lines, probes=probes,
            )
        # Partial subblock: the faulting page must have its valid bit set.
        if not (node.valid_mask >> boff) & 1:
            return None
        return LookupResult(
            vpn=vpn, ppn=node.ppn + boff, attrs=node.attrs,
            kind=PTEKind.PARTIAL_SUBBLOCK, base_vpn=base_vpn,
            npages=self.grain, base_ppn=node.ppn, valid_mask=node.valid_mask,
            cache_lines=lines, probes=probes,
        )

    # ------------------------------------------------------------------
    # Translation
    # ------------------------------------------------------------------
    def _walk(self, vpn: int) -> WalkOutcome:
        tag = self._tag_of(vpn)
        node, probes = self._find(tag)
        lines = probes  # every chain node occupies (at most) one cache line
        if node is None:
            return None, lines, probes
        result = self._node_to_result(vpn, node, lines, probes)
        return result, lines, probes

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _insert_node(self, node: HashNode) -> None:
        bucket = self._bucket_of(node.tag)
        chain = self._buckets.setdefault(bucket, [])
        self.stats.op_nodes_visited += max(1, len(chain))
        for existing in chain:
            if existing.tag == node.tag:
                raise MappingExistsError(node.tag * self.grain)
        chain.append(node)
        self._node_count += 1
        self.stats.op_nodes_allocated += 1
        self.stats.inserts += 1

    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping (requires ``grain == 1``)."""
        if self.grain != 1:
            raise ConfigurationError(
                f"base-page insert into a grain-{self.grain} hashed table; "
                "use insert_superpage / insert_partial_subblock"
            )
        self.layout.check_vpn(vpn)
        self.layout.check_ppn(ppn)
        self._insert_node(HashNode(tag=vpn, kind=PTEKind.BASE, ppn=ppn, attrs=attrs))

    def insert_many(
        self, items: Iterable[BulkItem], attrs: int = DEFAULT_ATTRS
    ) -> int:
        """Bulk base-page insert, exactly the :meth:`insert` loop.

        Bucket ids come from one vectorised hash per chunk; nodes are
        appended in item order, so chains and the bucket dict end up in
        the loop's order.  Tables whose ``insert`` this does not mirror
        (grain above 1, subclasses with their own insert) take the loop.
        """
        mirrored = (HashedPageTable.insert, SuperpageIndexHashedPageTable.insert)
        if type(self).insert not in mirrored or self.grain != 1:
            return super().insert_many(items, attrs)
        return self._insert_bulk(items, attrs)

    def _insert_chunk(
        self,
        vpns: List[int],
        ppns: List[int],
        targets: List[BulkTarget],
        attrs: int,
    ) -> bool:
        """Append one validated chunk; False (no change) on a taken tag."""
        buckets = self._buckets
        buckets_of = self._bucket_ids(vpns)
        if buckets:
            for vpn, bucket in zip(vpns, buckets_of):
                for node in buckets.get(bucket, ()):
                    if node.tag == vpn:
                        return False
        base = PTEKind.BASE
        visited = 0  # the loop's duplicate scan: max(1, chain length)
        for vpn, ppn, target, bucket in zip(vpns, ppns, targets, buckets_of):
            if isinstance(target, Mapping):
                node = HashNode(vpn, base, ppn, target.attrs)
            else:
                node = HashNode(vpn, base, ppn, attrs)
            chain = buckets.get(bucket)
            if chain is None:
                # Start empty and append, as the loop does, so each chain
                # list grows (and over-allocates) exactly like the loop's.
                chain = buckets[bucket] = []
            visited += len(chain) or 1
            chain.append(node)
        count = len(vpns)
        self._node_count += count
        self.stats.op_nodes_visited += visited
        self.stats.op_nodes_allocated += count
        self.stats.inserts += count
        return True

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage PTE; its size must equal the table grain."""
        if npages != self.grain:
            raise AlignmentError(
                f"grain-{self.grain} hashed table cannot hold a "
                f"{npages}-page superpage"
            )
        if base_vpn % npages or base_ppn % npages:
            raise AlignmentError(
                f"superpage at VPN {base_vpn:#x}/PPN {base_ppn:#x} is not "
                f"{npages}-page aligned"
            )
        self._insert_node(
            HashNode(
                tag=base_vpn // self.grain, kind=PTEKind.SUPERPAGE,
                ppn=base_ppn, attrs=attrs, npages=npages,
            )
        )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock PTE; the block size must equal the grain."""
        if self.grain != self.layout.subblock_factor:
            raise AlignmentError(
                f"partial-subblock PTEs need a grain-"
                f"{self.layout.subblock_factor} table, this one is grain-"
                f"{self.grain}"
            )
        if valid_mask == 0:
            raise ConfigurationError("partial-subblock PTE needs a non-empty mask")
        if base_ppn % self.grain:
            raise AlignmentError(
                f"partial-subblock base PPN {base_ppn:#x} not block-aligned"
            )
        self._insert_node(
            HashNode(
                tag=vpbn, kind=PTEKind.PARTIAL_SUBBLOCK,
                ppn=base_ppn, attrs=attrs, valid_mask=valid_mask,
            )
        )

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits in place (the node's single ATTR field)."""
        tag = self._tag_of(vpn)
        node, probes = self._find(tag)
        self.stats.op_nodes_visited += probes
        if node is None or self._node_to_result(vpn, node, 0, 0) is None:
            raise PageFaultError(vpn, f"no hashed PTE covers VPN {vpn:#x}")
        node.attrs = (node.attrs | set_bits) & ~clear_bits
        return node.attrs

    def remove(self, vpn: int) -> None:
        """Remove the node whose tag covers ``vpn``."""
        tag = self._tag_of(vpn)
        bucket = self._bucket_of(tag)
        chain = self._buckets.get(bucket, [])
        for i, node in enumerate(chain):
            if node.tag == tag:
                self.stats.op_nodes_visited += i + 1
                del chain[i]
                if not chain:
                    del self._buckets[bucket]
                self._node_count -= 1
                self.stats.removes += 1
                return
        self.stats.op_nodes_visited += max(1, len(chain))
        raise PageFaultError(vpn, f"no hashed PTE covers VPN {vpn:#x}")

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------
    @property
    def node_bytes(self) -> int:
        """Bytes per chain node under the current packing option."""
        return PACKED_NODE_BYTES if self.packed else HASHED_NODE_BYTES

    @property
    def node_count(self) -> int:
        """Number of PTE nodes currently in the table."""
        return self._node_count

    def size_bytes(self) -> int:
        """Table memory: nodes (plus the bucket array when configured)."""
        size = self._node_count * self.node_bytes
        if self.count_bucket_array:
            size += self.bucket_array_bytes()
        return size

    def bucket_array_bytes(self) -> int:
        """Memory of the bucket-head array (one node slot per bucket)."""
        return self.num_buckets * self.node_bytes

    def load_factor(self) -> float:
        """The paper's α: nodes per bucket."""
        return self._node_count / self.num_buckets

    def chain_lengths(self) -> List[int]:
        """Chain length of every non-empty bucket (for distribution tests)."""
        return [len(chain) for chain in self._buckets.values()]

    def describe(self) -> str:
        grain = "" if self.grain == 1 else f", grain {self.grain}"
        packed = ", packed" if self.packed else ""
        return (
            f"{self.name} page table ({self.num_buckets} buckets{grain}{packed})"
        )


class SuperpageIndexHashedPageTable(HashedPageTable):
    """Hashed table that always hashes on a fixed superpage index (§4.2).

    Every PTE — base, superpage, or partial-subblock — for one aligned
    ``index_pages`` region hashes to the same bucket, so a single probe
    sequence finds any of them; the cost is that a region mapped by sixteen
    base pages contributes sixteen nodes to one chain.  Superpages *larger*
    than the index size cannot be stored and must be handled elsewhere, as
    the paper notes.
    """

    name = "superpage-index hashed"

    def __init__(
        self,
        layout: AddressLayout = DEFAULT_LAYOUT,
        cache: CacheModel = DEFAULT_CACHE,
        num_buckets: int = 4096,
        index_pages: Optional[int] = None,
        packed: bool = False,
        hash_fn: Callable[[int, int], int] = multiplicative_hash,
    ):
        super().__init__(
            layout, cache, num_buckets=num_buckets, grain=1, packed=packed,
            hash_fn=hash_fn,
        )
        self.index_pages = index_pages or layout.subblock_factor
        if self.index_pages & (self.index_pages - 1):
            raise ConfigurationError(
                f"superpage index size must be a power of two, got "
                f"{self.index_pages}"
            )

    def _index_of(self, vpn: int) -> int:
        return vpn // self.index_pages

    def _bucket_ids(self, tags: List[int]) -> List[int]:
        keys = np.array(tags, dtype=np.int64) // self.index_pages
        return bucket_ids(keys, self.hash_fn, self.num_buckets)

    def _bucket_of(self, tag: int) -> int:
        # Tags in this table are base VPNs; every PTE hashes on the fixed
        # superpage index so that one probe sequence can find base,
        # superpage, and partial-subblock PTEs alike.
        return self.hash_fn(self._index_of(tag), self.num_buckets)

    def _bucket_of_vpn(self, vpn: int) -> int:
        return self._bucket_of(vpn)

    def _walk(self, vpn: int) -> WalkOutcome:
        chain = self._buckets.get(self._bucket_of_vpn(vpn), [])
        if not chain:
            return None, 1, 1
        for i, node in enumerate(chain):
            probes = i + 1
            if not self._covers(node, vpn):
                continue
            result = self._node_to_result(vpn, node, probes, probes)
            if result is not None:
                return result, probes, probes
            # A tag matched but the page's valid bit is clear: keep
            # searching the chain, per §5 ("continue searching the hash
            # chain after a tag match that fails to find a valid mapping").
        return None, len(chain), len(chain)

    def insert(self, vpn: int, ppn: int, attrs: int = DEFAULT_ATTRS) -> None:
        """Add a base-page mapping (hashed on its superpage index)."""
        self.layout.check_vpn(vpn)
        self.layout.check_ppn(ppn)
        self._insert_node(HashNode(tag=vpn, kind=PTEKind.BASE, ppn=ppn, attrs=attrs))

    def insert_superpage(
        self, base_vpn: int, npages: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a superpage PTE no larger than the index size."""
        if npages > self.index_pages:
            raise AlignmentError(
                f"{npages}-page superpage exceeds the {self.index_pages}-page "
                "hash index; the paper requires handling these another way"
            )
        if base_vpn % npages or base_ppn % npages:
            raise AlignmentError("superpage not naturally aligned")
        self._insert_node(
            HashNode(tag=base_vpn, kind=PTEKind.SUPERPAGE, ppn=base_ppn,
                     attrs=attrs, npages=npages)
        )

    def insert_partial_subblock(
        self, vpbn: int, valid_mask: int, base_ppn: int, attrs: int = DEFAULT_ATTRS
    ) -> None:
        """Add a partial-subblock PTE for one page block."""
        if valid_mask == 0:
            raise ConfigurationError("partial-subblock PTE needs a non-empty mask")
        base_vpn = self.layout.vpn_of_block(vpbn)
        self._insert_node(
            HashNode(tag=base_vpn, kind=PTEKind.PARTIAL_SUBBLOCK, ppn=base_ppn,
                     attrs=attrs, valid_mask=valid_mask)
        )

    # Tag semantics differ (tag == base_vpn, not vpn // grain), so node →
    # result conversion needs the override below.
    def _node_to_result(self, vpn, node, lines, probes):
        # Unlike the parent class, tags here are base VPNs (not vpn//grain),
        # so the conversion is restated with base_vpn == node.tag.
        boff = vpn - node.tag
        if node.kind is PTEKind.BASE:
            return LookupResult(
                vpn=vpn, ppn=node.ppn, attrs=node.attrs, kind=PTEKind.BASE,
                base_vpn=node.tag, npages=1, base_ppn=node.ppn,
                valid_mask=1, cache_lines=lines, probes=probes,
            )
        if node.kind is PTEKind.SUPERPAGE:
            if not 0 <= boff < node.npages:
                return None
            return LookupResult(
                vpn=vpn, ppn=node.ppn + boff, attrs=node.attrs,
                kind=PTEKind.SUPERPAGE, base_vpn=node.tag,
                npages=node.npages, base_ppn=node.ppn,
                valid_mask=(1 << node.npages) - 1,
                cache_lines=lines, probes=probes,
            )
        s = self.layout.subblock_factor
        if not 0 <= boff < s or not (node.valid_mask >> boff) & 1:
            return None
        return LookupResult(
            vpn=vpn, ppn=node.ppn + boff, attrs=node.attrs,
            kind=PTEKind.PARTIAL_SUBBLOCK, base_vpn=node.tag, npages=s,
            base_ppn=node.ppn, valid_mask=node.valid_mask,
            cache_lines=lines, probes=probes,
        )

    def mark(self, vpn: int, set_bits: int = 0, clear_bits: int = 0) -> int:
        """Update attribute bits of the covering node in place."""
        chain = self._buckets.get(self._bucket_of_vpn(vpn), [])
        for i, node in enumerate(chain):
            if not self._covers(node, vpn):
                continue
            if self._node_to_result(vpn, node, 0, 0) is None:
                continue
            self.stats.op_nodes_visited += i + 1
            node.attrs = (node.attrs | set_bits) & ~clear_bits
            return node.attrs
        self.stats.op_nodes_visited += max(1, len(chain))
        raise PageFaultError(vpn, f"no hashed PTE covers VPN {vpn:#x}")

    def remove(self, vpn: int) -> None:
        """Remove the node whose tag covers ``vpn``."""
        bucket = self._bucket_of_vpn(vpn)
        chain = self._buckets.get(bucket, [])
        for i, node in enumerate(chain):
            if self._covers(node, vpn):
                self.stats.op_nodes_visited += i + 1
                del chain[i]
                if not chain:
                    del self._buckets[bucket]
                self._node_count -= 1
                self.stats.removes += 1
                return
        self.stats.op_nodes_visited += max(1, len(chain))
        raise PageFaultError(vpn, f"no hashed PTE covers VPN {vpn:#x}")

    def _covers(self, node: HashNode, vpn: int) -> bool:
        if node.kind is PTEKind.BASE:
            return node.tag == vpn
        width = node.npages if node.kind is PTEKind.SUPERPAGE else self.layout.subblock_factor
        return node.tag <= vpn < node.tag + width
