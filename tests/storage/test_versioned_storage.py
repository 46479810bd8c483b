"""Integration tests for the distributed versioned storage layer.

These tests drive the full publish / retrieve protocols over a simulated
cluster, including the paper's running example (Example 4.1 / 4.2) and the
snapshot-consistency guarantees of Section IV.
"""

import pytest

from repro.cluster import Cluster, build_cluster
from repro.common.errors import RelationNotFoundError, EpochNotFoundError
from repro.common.types import RelationData, Schema
from repro.overlay.replication import replica_set
from repro.storage.client import UpdateBatch


def relation_r(rows):
    data = RelationData(Schema("R", ["x", "y"], key=["x"]))
    data.extend(rows)
    return data


class TestPublishRetrieve:
    def test_publish_and_retrieve_round_trip(self):
        cluster = Cluster(4)
        data = relation_r([(f"k{i}", i) for i in range(200)])
        cluster.publish(data)
        result = cluster.retrieve("R")
        assert sorted(result.rows()) == sorted(data.rows)
        assert result.resolved_epoch == 1
        assert result.pages_scanned >= 4

    def test_retrieve_with_key_predicate(self):
        cluster = Cluster(4)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(100)]))
        result = cluster.retrieve("R", key_predicate=lambda key: key[0] in {"k1", "k2", "k3"})
        assert sorted(result.rows()) == [("k1", 1), ("k2", 2), ("k3", 3)]

    def test_retrieve_from_any_node(self):
        cluster = Cluster(5)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(50)]))
        for address in cluster.addresses:
            result = cluster.retrieve("R", from_address=address)
            assert len(result.tuples) == 50

    def test_unknown_relation_raises(self):
        cluster = Cluster(3)
        cluster.publish(relation_r([("a", 1)]))
        with pytest.raises(RelationNotFoundError):
            cluster.retrieve("NotPublished")

    def test_epoch_before_first_publish_raises(self):
        cluster = Cluster(3)
        cluster.publish(relation_r([("a", 1)]), epoch=5)
        with pytest.raises(EpochNotFoundError):
            cluster.retrieve("R", epoch=2)

    def test_single_node_cluster(self):
        cluster = Cluster(1, replication_factor=3)
        cluster.publish(relation_r([("a", 1), ("b", 2)]))
        assert sorted(cluster.retrieve("R").rows()) == [("a", 1), ("b", 2)]

    def test_multiple_relations_same_epoch(self):
        cluster = Cluster(4)
        r = relation_r([("a", 1)])
        s = RelationData(Schema("S", ["u", "v"], key=["u"]))
        s.add("x", 10)
        epoch = cluster.publish_relations([r, s])
        assert len(cluster.retrieve("R", epoch=epoch).tuples) == 1
        assert len(cluster.retrieve("S", epoch=epoch).tuples) == 1

    def test_publish_distributes_data_across_nodes(self):
        cluster = Cluster(8, replication_factor=1)
        cluster.publish(relation_r([(f"key-{i}", i) for i in range(400)]))
        counts = [cluster.storage(a).tuple_count() for a in cluster.addresses]
        assert sum(counts) == 400
        # Balanced allocation: no node should hold a wildly disproportionate share.
        assert max(counts) < 400 * 0.5

    def test_replication_factor_copies(self):
        cluster = Cluster(5, replication_factor=3)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(100)]))
        total = sum(cluster.storage(a).tuple_count() for a in cluster.addresses)
        assert total == 100 * 3

    def test_build_cluster_helper(self):
        cluster = build_cluster(3, relations=[relation_r([("a", 1)])])
        assert cluster.retrieve("R").rows() == [("a", 1)]


class TestVersioning:
    def test_modifications_create_new_version(self):
        cluster = Cluster(4)
        cluster.publish(relation_r([("a", 1), ("b", 2)]), epoch=1)
        batch = UpdateBatch(
            schema=Schema("R", ["x", "y"], key=["x"]),
            modifications=[("a", 100)],
        )
        cluster.publish(batch, epoch=2)

        at_epoch_1 = cluster.retrieve("R", epoch=1)
        at_epoch_2 = cluster.retrieve("R", epoch=2)
        assert sorted(at_epoch_1.rows()) == [("a", 1), ("b", 2)]
        assert sorted(at_epoch_2.rows()) == [("a", 100), ("b", 2)]

    def test_inserts_at_later_epoch(self):
        cluster = Cluster(4)
        cluster.publish(relation_r([("a", 1)]), epoch=1)
        cluster.publish(
            UpdateBatch(Schema("R", ["x", "y"], key=["x"]), inserts=[("b", 2), ("c", 3)]),
            epoch=2,
        )
        assert len(cluster.retrieve("R", epoch=1).tuples) == 1
        assert len(cluster.retrieve("R", epoch=2).tuples) == 3

    def test_deletes(self):
        cluster = Cluster(4)
        cluster.publish(relation_r([("a", 1), ("b", 2), ("c", 3)]), epoch=1)
        cluster.publish(
            UpdateBatch(Schema("R", ["x", "y"], key=["x"]), deletes=[("b",)]), epoch=2
        )
        assert sorted(cluster.retrieve("R", epoch=2).rows()) == [("a", 1), ("c", 3)]
        assert sorted(cluster.retrieve("R", epoch=1).rows()) == [("a", 1), ("b", 2), ("c", 3)]

    def test_query_at_intermediate_epoch_resolves_to_latest_published(self):
        cluster = Cluster(4)
        cluster.publish(relation_r([("a", 1)]), epoch=1)
        cluster.publish(
            UpdateBatch(Schema("R", ["x", "y"], key=["x"]), inserts=[("b", 2)]), epoch=5
        )
        # Epoch 3 sees the version published at epoch 1.
        result = cluster.retrieve("R", epoch=3)
        assert result.resolved_epoch == 1
        assert sorted(result.rows()) == [("a", 1)]

    def test_unchanged_pages_are_shared_between_versions(self):
        cluster = Cluster(4, page_capacity=64)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(256)]), epoch=1)
        cluster.publish(
            UpdateBatch(Schema("R", ["x", "y"], key=["x"]), modifications=[("k0", 999)]),
            epoch=2,
        )
        record_1 = None
        record_2 = None
        for address in cluster.addresses:
            record_1 = record_1 or cluster.storage(address).local_coordinator("R", 1)
            record_2 = record_2 or cluster.storage(address).local_coordinator("R", 2)
        assert record_1 is not None and record_2 is not None
        pages_1 = {ref.page_id for ref in record_1.pages}
        pages_2 = {ref.page_id for ref in record_2.pages}
        shared = pages_1 & pages_2
        # Only the page containing k0 should differ; every other page is reused.
        assert len(shared) >= len(pages_1) - 1
        assert pages_1 != pages_2

    def test_epoch_gossip_reaches_all_nodes(self):
        cluster = Cluster(5)
        cluster.publish(relation_r([("a", 1)]))
        assert all(
            cluster.node(address).gossip.current_epoch == cluster.current_epoch
            for address in cluster.addresses
        )

    def test_tuple_ids_carry_modification_epoch(self):
        cluster = Cluster(3)
        cluster.publish(relation_r([("f", "z")]), epoch=1)
        cluster.publish(
            UpdateBatch(Schema("R", ["x", "y"], key=["x"]), modifications=[("f", "a")]),
            epoch=2,
        )
        result = cluster.retrieve("R", epoch=2)
        (tup,) = result.tuples
        assert tup.tuple_id.epoch == 2
        assert tup.tuple_id.key_values == ("f",)


class TestPaperExample:
    """Example 4.1 / 4.2 from the paper: three epochs of changes to R(x, y)."""

    def build(self):
        cluster = Cluster(3, replication_factor=1)
        schema = Schema("R", ["x", "y"], key=["x"])
        # Epoch 0 in the paper is our epoch 1 (epochs here start at 1).
        cluster.publish(
            UpdateBatch(schema, inserts=[("a", "b"), ("f", "z")]), epoch=1
        )
        cluster.publish(
            UpdateBatch(
                schema,
                inserts=[("b", "c"), ("e", "e"), ("c", "f")],
                modifications=[("f", "a")],
            ),
            epoch=2,
        )
        cluster.publish(UpdateBatch(schema, inserts=[("d", "d")]), epoch=3)
        return cluster

    def test_final_state(self):
        cluster = self.build()
        result = cluster.retrieve("R", epoch=3)
        assert sorted(result.rows()) == [
            ("a", "b"), ("b", "c"), ("c", "f"), ("d", "d"), ("e", "e"), ("f", "a"),
        ]

    def test_lookup_at_epoch_two(self):
        # Figure 5: the lookup of R at epoch 2 must see f's *new* version and
        # not include d (inserted later).
        cluster = self.build()
        result = cluster.retrieve("R", epoch=2)
        rows = dict(result.rows())
        assert rows["f"] == "a"
        assert "d" not in rows
        assert len(rows) == 5

    def test_lookup_at_epoch_one(self):
        cluster = self.build()
        result = cluster.retrieve("R", epoch=1)
        assert sorted(result.rows()) == [("a", "b"), ("f", "z")]

    def test_stale_version_never_returned(self):
        # The superseded tuple ⟨f, 0⟩ remains in storage (full versioning) but
        # must never be returned for epoch ≥ 2.
        cluster = self.build()
        stored_versions = []
        for address in cluster.addresses:
            for tup in cluster.storage(address).all_local_tuples("R"):
                if tup.tuple_id.key_values == ("f",):
                    stored_versions.append(tup.tuple_id.epoch)
        assert set(stored_versions) == {1, 2}
        result = cluster.retrieve("R", epoch=3)
        f_rows = [row for row in result.rows() if row[0] == "f"]
        assert f_rows == [("f", "a")]


class TestFailureTolerance:
    def test_retrieve_after_single_node_failure(self):
        cluster = Cluster(5, replication_factor=3)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(150)]))
        cluster.fail_node(cluster.addresses[2])
        cluster.run()
        result = cluster.retrieve("R", from_address=cluster.addresses[0])
        assert len(result.tuples) == 150

    def test_retrieve_after_two_node_failures(self):
        cluster = Cluster(6, replication_factor=3)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(150)]))
        cluster.fail_node(cluster.addresses[1])
        cluster.fail_node(cluster.addresses[4])
        cluster.run()
        result = cluster.retrieve("R", from_address=cluster.addresses[0])
        assert len(result.tuples) == 150

    def test_background_replication_repairs_new_node_ranges(self):
        cluster = Cluster(5, replication_factor=2)
        cluster.publish(relation_r([(f"k{i}", i) for i in range(100)]))
        report = cluster.run_background_replication()
        # Already fully replicated immediately after publish.
        assert report.items_copied == 0

    def test_traffic_is_generated_by_publish_and_retrieve(self):
        cluster = Cluster(4)
        before = cluster.traffic_snapshot()
        cluster.publish(relation_r([(f"k{i}", "x" * 50) for i in range(100)]))
        after_publish = cluster.traffic_snapshot()
        cluster.retrieve("R")
        after_retrieve = cluster.traffic_snapshot()
        assert before.delta(after_publish).total_bytes > 0
        assert after_publish.delta(after_retrieve).total_bytes > 0


class TestReplicaChase:
    """Several tuple versions missing from their owner *and* first replica.

    Each missing version is chased separately across the remaining search
    targets; every chase must keep asking for its own tuple, so the answer
    holds every row exactly once.
    """

    ROWS = [(f"k{i}", i) for i in range(150)]

    def cluster_missing_tuples(self, count=3):
        cluster = Cluster(5, replication_factor=3)
        data = relation_r(self.ROWS)
        cluster.publish(data)
        snapshot = cluster.snapshot()
        by_owner = {}
        for values in data.rows:
            tid = data.schema.tuple_id_for(values, 1)
            by_owner.setdefault(snapshot.owner_of(tid.hash_key), []).append(tid)
        tids = max(by_owner.values(), key=len)[:count]
        assert len(tids) == count
        holders = replica_set(snapshot, tids[0].hash_key, 3)[:2]
        for address in holders:
            for tid in tids:
                key = ("R", tid.hash_key, tid)
                assert cluster.node(address).storage.store.delete("tuples", key)
        return cluster

    def test_retrieve_returns_every_row_once(self):
        cluster = self.cluster_missing_tuples()
        assert sorted(cluster.retrieve("R").rows()) == sorted(self.ROWS)

    def test_query_returns_every_row_once(self):
        cluster = self.cluster_missing_tuples()
        assert sorted(cluster.query("SELECT x, y FROM R").rows) == sorted(self.ROWS)
