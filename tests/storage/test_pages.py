"""Tests for index pages, coordinator records and page layout helpers."""

import pytest

from repro.common.hashing import KEY_SPACE_SIZE, ranges_partition_ring
from repro.common.types import TupleId
from repro.storage.pages import (
    CoordinatorRecord,
    IndexPage,
    PageId,
    catalog_key,
    choose_page_count,
    coordinator_key,
    initial_page_layout,
    inverse_key,
    page_order,
)


class TestPageLayout:
    def test_layout_partitions_ring(self):
        refs = initial_page_layout("R", 1, 8)
        assert len(refs) == 8
        assert ranges_partition_ring([ref.hash_range for ref in refs])

    def test_single_page_covers_ring(self):
        (ref,) = initial_page_layout("R", 1, 1)
        assert ref.hash_range.size() == KEY_SPACE_SIZE

    def test_invalid_page_count(self):
        with pytest.raises(ValueError):
            initial_page_layout("R", 1, 0)

    def test_page_ids_are_sequenced(self):
        refs = initial_page_layout("R", 3, 4)
        assert [ref.page_id.sequence for ref in refs] == [0, 1, 2, 3]
        assert all(ref.page_id.epoch == 3 for ref in refs)

    def test_storage_key_is_range_midpoint(self):
        refs = initial_page_layout("R", 1, 4)
        for ref in refs:
            assert ref.hash_range.contains(ref.storage_key)
            assert ref.storage_key == ref.hash_range.midpoint()

    def test_choose_page_count_by_capacity(self):
        # Capacity asks for 10 pages; rounded up to a multiple of the node
        # count so page ranges nest inside node ranges (co-location).
        assert choose_page_count(10_000, num_nodes=4, page_capacity=1000) == 12

    def test_choose_page_count_at_least_one_per_node(self):
        assert choose_page_count(10, num_nodes=16, page_capacity=1000) == 16

    def test_choose_page_count_minimum_one(self):
        assert choose_page_count(0, num_nodes=1, page_capacity=1000) == 1

    def test_choose_page_count_is_multiple_of_node_count(self):
        for nodes in (1, 2, 3, 5, 7, 16):
            for tuples in (0, 100, 5_000, 50_000):
                assert choose_page_count(tuples, num_nodes=nodes, page_capacity=1000) % nodes == 0

    def test_page_ranges_nest_inside_balanced_node_ranges(self):
        # With a page count that is a multiple of the node count, every page
        # range lies entirely inside exactly one node's balanced range.
        from repro.overlay.allocation import BalancedAllocation

        addresses = [f"node-{i}" for i in range(5)]
        allocation = BalancedAllocation().allocate(addresses)
        refs = initial_page_layout("R", 1, choose_page_count(9_000, 5, page_capacity=1000))
        for ref in refs:
            owners = [
                address for address, node_range in allocation.items()
                if node_range.contains(ref.hash_range.start)
                and node_range.contains(ref.hash_range.midpoint())
                and (node_range.contains(ref.hash_range.end)
                     or ref.hash_range.end == node_range.end)
            ]
            assert owners, f"page {ref} straddles node boundaries"


class TestIndexPage:
    def make_page(self):
        (ref,) = initial_page_layout("R", 1, 1)
        ids = [TupleId((f"k{i}",), 1) for i in range(5)]
        return IndexPage(ref, sorted(ids, key=lambda t: t.hash_key))

    def test_accessors(self):
        page = self.make_page()
        assert page.page_id.relation == "R"
        assert page.min_hash() == page.hash_range.start
        assert page.max_hash() == page.hash_range.end
        assert page.estimated_size() > 64

    def test_with_changes_adds_and_removes(self):
        page = self.make_page()
        old = page.tuple_ids[0]
        new = TupleId(old.key_values, 2)
        updated = page.with_changes(2, sequence=0, inserts=[new], removals=[old])
        assert new in updated.tuple_ids
        assert old not in updated.tuple_ids
        assert updated.page_id.epoch == 2
        assert updated.hash_range == page.hash_range
        # the original page is unchanged (pages are immutable versions)
        assert old in page.tuple_ids

    def test_with_changes_keeps_sorted_order(self):
        page = self.make_page()
        new_ids = [TupleId((f"new{i}",), 2) for i in range(3)]
        updated = page.with_changes(2, 0, inserts=new_ids)
        hashes = [tid.hash_key for tid in updated.tuple_ids]
        assert hashes == sorted(hashes)

    def test_with_changes_tie_order(self):
        # Partitioning on the first of two key values gives equal (hash_key,
        # epoch) to every ID below: kept IDs stay ahead of inserts, and the
        # inserts keep their batch order, exactly as a stable sort would.
        (ref,) = initial_page_layout("R", 1, 1)
        kept = [TupleId(("p", i), 2, partition_width=1) for i in (4, 1, 3)]
        other = TupleId(("q", 0), 2, partition_width=1)
        page = IndexPage(ref, sorted(kept + [other], key=page_order))
        inserts = [TupleId(("p", i), 2, partition_width=1) for i in (9, 0, 5)]
        updated = page.with_changes(3, 0, inserts=inserts, removals=[kept[1]])
        survivors = [kept[0], kept[2]]
        assert [tid for tid in updated.tuple_ids if tid != other] == survivors + inserts
        assert updated.tuple_ids == sorted(
            [tid for tid in page.tuple_ids if tid != kept[1]] + inserts, key=page_order
        )

    def test_with_changes_matches_full_sort(self):
        (ref,) = initial_page_layout("R", 1, 1)
        ids = [TupleId((f"k{i % 7}", i), i % 3, partition_width=1) for i in range(40)]
        page = IndexPage(ref, sorted(ids, key=page_order))
        inserts = [TupleId((f"k{i % 9}", 100 + i), 2, partition_width=1) for i in range(12)]
        removals = ids[::5]
        updated = page.with_changes(4, 0, inserts=inserts, removals=removals)
        kept = [tid for tid in page.tuple_ids if tid not in set(removals)]
        assert updated.tuple_ids == sorted(kept + inserts, key=page_order)


class TestCoordinatorRecord:
    def test_page_for_hash(self):
        refs = initial_page_layout("R", 1, 4)
        record = CoordinatorRecord("R", 1, refs)
        for i in range(50):
            tid = TupleId((f"k{i}",), 1)
            ref = record.page_for_hash(tid.hash_key)
            assert ref.hash_range.contains(tid.hash_key)

    def test_page_for_hash_missing(self):
        record = CoordinatorRecord("R", 1, [])
        with pytest.raises(LookupError):
            record.page_for_hash(123)

    def test_estimated_size_scales_with_pages(self):
        small = CoordinatorRecord("R", 1, initial_page_layout("R", 1, 2))
        large = CoordinatorRecord("R", 1, initial_page_layout("R", 1, 20))
        assert large.estimated_size() > small.estimated_size()


class TestPlacementKeys:
    def test_coordinator_key_depends_on_epoch(self):
        assert coordinator_key("R", 1) != coordinator_key("R", 2)
        assert coordinator_key("R", 1) != coordinator_key("S", 1)

    def test_catalog_key_is_stable(self):
        assert catalog_key("R") == catalog_key("R")

    def test_inverse_key_matches_tuple_hash(self):
        assert inverse_key("R", ("a",)) == TupleId(("a",), 7).hash_key

    def test_page_id_ordering(self):
        assert PageId("R", 1, 0) < PageId("R", 1, 1) < PageId("R", 2, 0)

    def test_page_ref_size(self):
        (ref,) = initial_page_layout("R", 1, 1)
        assert ref.estimated_size() > 0
