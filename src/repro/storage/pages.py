"""Versioned index pages and relation coordinator records (Figure 3).

The versioned storage scheme tracks, for every relation and epoch, exactly
which tuple versions belong to that snapshot.  The bookkeeping is hierarchical:

* A **relation coordinator record**, addressed by ``h(⟨R, e⟩)``, lists the IDs
  of the index pages that make up relation ``R`` at epoch ``e``, along with
  each page's tuple-ID hash range.
* An **index page**, addressed by the ring position at the *middle* of its
  tuple-hash range (so that it is co-located with most of the tuples it
  references), lists the :class:`~repro.common.types.TupleId` of every tuple
  version live in that range at that epoch.
* **Inverse entries** map a tuple's key back to the page currently holding its
  ID, so that a modification can find and supersede the old version.

Pages are immutable once written; modifying a tuple produces a *new* page
version (a new :class:`PageId` carrying the epoch of the change) while
unaffected pages are shared between relation versions — the storage-reuse
property the paper borrows from CFS and log-structured filesystems.
"""

from __future__ import annotations

from bisect import bisect_right, insort_right
from dataclasses import dataclass, field
from typing import Iterable, Sequence

from ..common.hashing import KEY_SPACE_SIZE, KeyRange, sha1_key
from ..common.types import TupleId


@dataclass(frozen=True, order=True)
class PageId:
    """Identifier of one version of one index page.

    Matches the paper's description (Example 4.1): the relation name, the
    epoch in which the page was last modified, and a unique identifier for
    that relation and epoch.  The ring position where the page is stored is a
    function of the page's hash range, exposed by :class:`PageRef`.
    """

    relation: str
    epoch: int
    sequence: int

    def __repr__(self) -> str:
        return f"Page({self.relation}@{self.epoch}#{self.sequence})"


@dataclass(frozen=True)
class PageRef:
    """Coordinator-side reference to a page: its ID plus its hash range."""

    page_id: PageId
    hash_range: KeyRange

    @property
    def storage_key(self) -> int:
        """Ring position where the page lives: the middle of its hash range.

        Storing the page at the midpoint of the tuple-key hash range it covers
        keeps the page on the same node as (most of) the tuples it references,
        which is the co-location optimisation Section IV relies on for
        performance.
        """
        return self.hash_range.midpoint()

    def estimated_size(self) -> int:
        return 64  # page id + two 160-bit range bounds + framing


def page_order(tid: TupleId) -> tuple[int, int]:
    """Sort key of the tuple IDs on an index page: hash key, then epoch."""
    return (tid.hash_key, tid.epoch)


@dataclass
class IndexPage:
    """One version of an index page: the tuple IDs live in its hash range.

    ``tuple_ids`` is kept sorted by :func:`page_order`.
    """

    ref: PageRef
    tuple_ids: list[TupleId] = field(default_factory=list)

    @property
    def page_id(self) -> PageId:
        return self.ref.page_id

    @property
    def hash_range(self) -> KeyRange:
        return self.ref.hash_range

    def min_hash(self) -> int:
        return self.hash_range.start

    def max_hash(self) -> int:
        return self.hash_range.end

    def estimated_size(self) -> int:
        # Each tuple ID costs roughly its key encoding plus an epoch.
        per_id = 24
        return 64 + per_id * len(self.tuple_ids)

    def with_changes(
        self,
        new_epoch: int,
        sequence: int,
        inserts: Iterable[TupleId] = (),
        removals: Iterable[TupleId] = (),
    ) -> "IndexPage":
        """A new page version with ``inserts`` added and ``removals`` dropped.

        ``removals`` identifies superseded versions (same key values, older
        epoch) or deleted tuples.  The new page carries ``new_epoch`` in its ID
        while keeping the same hash range.
        """
        removal_set = set(removals)
        kept = [tid for tid in self.tuple_ids if tid not in removal_set]
        # The kept IDs are already in page order and a version changes few
        # of them, so bisect the inserts in rather than re-sorting the page.
        # Inserting to the right of equal keys keeps the stable-sort order:
        # kept IDs before inserts, inserts in batch order.
        for tid in inserts:
            insort_right(kept, tid, key=page_order)
        new_ref = PageRef(
            PageId(self.page_id.relation, new_epoch, sequence), self.hash_range
        )
        return IndexPage(new_ref, kept)


@dataclass
class CoordinatorRecord:
    """The relation coordinator's state for one relation at one epoch."""

    relation: str
    epoch: int
    pages: list[PageRef] = field(default_factory=list)

    def estimated_size(self) -> int:
        return 32 + sum(page.estimated_size() for page in self.pages)

    def page_for_hash(self, hash_key: int) -> PageRef:
        """The page whose hash range covers ``hash_key``.

        Publishing resolves one page per changed tuple, so this lookup is
        O(pages) × O(tuples) on the hot path if done naively.  The ranges of
        a relation version tile the ring, so a bisect over the (sorted) range
        starts finds the only candidate; a linear scan remains as the
        fallback for records whose pages do not tile (never produced by the
        publish path, but tests construct them).
        """
        index = self.__dict__.get("_page_index")
        if index is None:
            ordered = sorted(self.pages, key=lambda ref: ref.hash_range.start)
            index = ([ref.hash_range.start for ref in ordered], ordered)
            self.__dict__["_page_index"] = index
        starts, ordered = index
        if ordered:
            position = bisect_right(starts, hash_key) - 1
            # A wrapping arc (start > end, spanning 0) sorts last and owns
            # keys below every start; position -1 selects exactly it.
            candidate = ordered[position]
            if candidate.hash_range.contains(hash_key):
                return candidate
        for page in self.pages:
            if page.hash_range.contains(hash_key):
                return page
        raise LookupError(
            f"no page of {self.relation}@{self.epoch} covers hash {hash_key}"
        )


def coordinator_key(relation: str, epoch: int) -> int:
    """Ring position of the relation coordinator for ``relation`` at ``epoch``."""
    return sha1_key(("relation-coordinator", relation, epoch))


def catalog_key(relation: str) -> int:
    """Ring position of the catalog record listing a relation's publish epochs."""
    return sha1_key(("relation-catalog", relation))


def inverse_key(relation: str, key_values: Sequence[object]) -> int:
    """Ring position of the inverse entry for a tuple key.

    The inverse entry shares the ring position of the tuple itself, so looking
    up "which page holds the current version of this tuple" is a local
    operation on the node that stores the tuple.
    """
    return TupleId(tuple(key_values), 0).hash_key


def initial_page_layout(relation: str, epoch: int, num_pages: int) -> list[PageRef]:
    """Partition the full hash ring into ``num_pages`` equal page ranges."""
    if num_pages < 1:
        raise ValueError("a relation needs at least one page")
    refs = []
    boundaries = [(KEY_SPACE_SIZE * i) // num_pages for i in range(num_pages + 1)]
    for sequence in range(num_pages):
        start = boundaries[sequence]
        end = boundaries[sequence + 1] % KEY_SPACE_SIZE
        full = num_pages == 1
        refs.append(
            PageRef(PageId(relation, epoch, sequence), KeyRange(start, end, full=full))
        )
    return refs


def choose_page_count(expected_tuples: int, num_nodes: int, page_capacity: int = 2048) -> int:
    """Pick how many pages a relation should have.

    At least one page per node (so scans parallelise over the whole cluster),
    enough pages that each holds at most ``page_capacity`` tuple IDs, and a
    multiple of the node count.  The last condition makes every page range
    nest exactly inside one node's range under the balanced allocation (both
    carve the ring at ``(2^160 * i) // count`` boundaries), so an index page
    and the tuples it references land on the same node — the co-location
    property Section IV relies on to keep tuple IDs off the network.
    """
    by_capacity = max(1, (expected_tuples + page_capacity - 1) // page_capacity)
    pages = max(num_nodes, by_capacity)
    if num_nodes > 0 and pages % num_nodes:
        pages += num_nodes - (pages % num_nodes)
    return pages
