"""Pins for the publish path's placement and replica-search order.

A first-version publish places every tuple ID on the index page whose hash
range covers it, by bisecting the page layout.  These tests compare that
placement, and the fallback node order a publish searches for a missing
previous page, against straightforward linear reference implementations.
"""

import random

import pytest

from repro.cluster import Cluster
from repro.common.hashing import KEY_SPACE_SIZE, sha1_key
from repro.common.types import RelationData, Schema
from repro.overlay.replication import replica_set
from repro.overlay.routing import RoutingTable, physical_address
from repro.storage.client import search_targets
from repro.storage.pages import CoordinatorRecord, initial_page_layout

NODES = 7


def linear_page(layout, hash_key):
    """The first page of ``layout`` whose range contains ``hash_key``."""
    for ref in layout:
        if ref.hash_range.contains(hash_key):
            return ref
    raise AssertionError(f"no page covers {hash_key}")


def probe_keys(layout):
    keys = {0, KEY_SPACE_SIZE - 1}
    for ref in layout:
        start = ref.hash_range.start
        keys.update({start, (start - 1) % KEY_SPACE_SIZE, (start + 1) % KEY_SPACE_SIZE})
    keys.update(sha1_key(("probe", i)) for i in range(200))
    return sorted(keys)


class TestFirstVersionPlacement:
    @pytest.mark.parametrize("num_pages", [1, NODES, 3 * NODES])
    def test_bisect_matches_linear_scan(self, num_pages):
        layout = initial_page_layout("R", 1, num_pages)
        placement = CoordinatorRecord("R", 1, layout)
        for key in probe_keys(layout):
            assert placement.page_for_hash(key) is linear_page(layout, key), key

    def test_published_pages_match_a_linear_scan_reference(self):
        # Partitioning on a key prefix gives IDs with equal (hash_key,
        # epoch): the page keeps them in batch order (stable sort).
        schema = Schema("R", ["a", "b", "v"], key=["a", "b"], partition_key=["a"])
        rows = [(f"p{i % 40}", i, 2 * i) for i in range(240)]
        random.Random(7).shuffle(rows)
        data = RelationData(schema)
        data.extend(rows)
        cluster = Cluster(NODES, page_capacity=16)
        cluster.publish(data, epoch=1)

        record = next(
            record for record in (
                cluster.storage(address).local_coordinator("R", 1)
                for address in cluster.addresses
            ) if record is not None
        )
        layout = initial_page_layout("R", 1, len(record.pages))
        assert len(layout) == 3 * NODES
        assert record.pages == layout

        expected = {ref.page_id: [] for ref in layout}
        for values in rows:
            tid = schema.tuple_id_for(values, 1)
            expected[linear_page(layout, tid.hash_key).page_id].append(tid)
        for ids in expected.values():
            ids.sort(key=lambda tid: (tid.hash_key, tid.epoch))

        for ref in layout:
            page = next(
                page for page in (
                    cluster.storage(address).local_page(ref.page_id)
                    for address in cluster.addresses
                ) if page is not None
            )
            assert page.tuple_ids == expected[ref.page_id]


def reference_search_targets(snapshot, key, replication_factor, exclude=()):
    """Replica set first, then every other physical node in ring order."""
    ordered = [a for a in replica_set(snapshot, key, replication_factor) if a not in exclude]
    for entry in snapshot.nodes:
        address = physical_address(entry)
        if address not in ordered and address not in exclude:
            ordered.append(address)
    return ordered


class TestSearchTargets:
    @pytest.fixture
    def snapshot(self):
        base = RoutingTable([f"node-{i}" for i in range(8)]).snapshot()
        reassigned, _moves = base.reassign_failed([base.nodes[2]], replication_factor=3)
        assert any("#" in entry for entry in reassigned.nodes)
        return reassigned

    def probes(self, snapshot):
        keys = [sha1_key(("probe", i)) for i in range(64)]
        keys += [snapshot.range_of(entry).start for entry in snapshot.nodes]
        return keys

    def test_synthetic_entries_collapse_in_replica_sets(self, snapshot):
        collapsed = [
            key for key in self.probes(snapshot)
            if any("#" in entry for entry in snapshot.replicas_for_key(key, 3))
        ]
        assert collapsed
        for key in collapsed:
            replicas = replica_set(snapshot, key, 3)
            assert replicas[0] == physical_address(snapshot.owner_of(key))
            assert len(replicas) == len(set(replicas))
            assert all("#" not in address for address in replicas)

    @pytest.mark.parametrize("exclude", [(), ("node-0",), ("node-3", "node-5")])
    def test_replicas_first_then_ring_order(self, snapshot, exclude):
        physical = snapshot.physical_nodes()
        for key in self.probes(snapshot):
            targets = search_targets(snapshot, key, 3, exclude=exclude)
            assert targets == reference_search_targets(snapshot, key, 3, exclude)
            replicas = [a for a in replica_set(snapshot, key, 3) if a not in exclude]
            assert targets[:len(replicas)] == replicas
            rest = targets[len(replicas):]
            assert rest == [a for a in physical if a in rest]
            assert len(targets) == len(set(targets))
            assert set(targets) == set(physical) - set(exclude)
