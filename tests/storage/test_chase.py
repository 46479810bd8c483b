"""The shared replica chase and owner router of :mod:`repro.storage.client`.

Every "fetch what this node lacks" path (catalog extension, coordinator
records, previous-version pages, retrieve and query scans) goes through
:func:`chase`, and every per-key request destination through
:func:`owner_router`.  These tests drive both on a bare simulated network,
with no cluster: a node without a resilience layer walks the targets strictly
in order, and the router's resilience-on choice agrees with the plain owner
whenever every peer is healthy.
"""

import random

from repro.common.hashing import KEY_SPACE_SIZE
from repro.net.simnet import Network
from repro.net.transport import rpc_endpoint
from repro.overlay.replication import replica_set
from repro.overlay.routing import RoutingTable, physical_address
from repro.resilience import NodeResilience
from repro.storage.client import chase, owner_router


def build(count=6):
    network = Network()
    nodes = {f"n{i}": network.add_node(f"n{i}") for i in range(count)}
    for node in nodes.values():
        rpc_endpoint(node)
    return network, nodes


def serve(nodes, address, reply, contacted):
    """Answer ``read`` on ``address`` with ``reply``, logging each request."""

    def handler(_src, _payload, respond):
        contacted.append(address)
        respond(reply, 8)

    rpc_endpoint(nodes[address]).register("read", handler)


def found(_src, reply):
    return not reply.get("missing")


class TestSequentialChase:
    def test_misses_and_crashes_advance_in_order_until_accepted(self):
        network, nodes = build()
        contacted, accepted, exhausted = [], [], []
        serve(nodes, "n1", {"missing": True}, contacted)
        serve(nodes, "n3", {"missing": True}, contacted)
        serve(nodes, "n4", {"value": 4}, contacted)
        serve(nodes, "n5", {"value": 5}, contacted)
        network.fail_node("n2")
        messages_at_accept = []

        def accept(src, reply):
            if not found(src, reply):
                return False
            accepted.append((src, reply["value"]))
            messages_at_accept.append(network.traffic.total_messages)
            return True

        chase(nodes["n0"], ["n1", "n2", "n3", "n4", "n5"], "read", {}, 8,
              accept, on_exhausted=lambda: exhausted.append(True))
        network.run()

        assert contacted == ["n1", "n3", "n4"]
        assert accepted == [("n4", 4)]
        assert exhausted == []
        # The accepted reply is the last message the chase caused.
        assert messages_at_accept == [network.traffic.total_messages]

    def test_exhausted_fires_exactly_once_after_every_target(self):
        network, nodes = build()
        contacted, exhausted = [], []
        for address in ("n1", "n3"):
            serve(nodes, address, {"missing": True}, contacted)
        network.fail_node("n2")

        chase(nodes["n0"], ["n3", "n1", "n2"], "read", {}, 8,
              found, on_exhausted=lambda: exhausted.append(True))
        network.run()

        assert contacted == ["n3", "n1"]
        assert exhausted == [True]

    def test_no_targets_is_immediately_exhausted(self):
        network, nodes = build()
        exhausted = []
        chase(nodes["n0"], [], "read", {}, 8, found,
              on_exhausted=lambda: exhausted.append(True))
        assert exhausted == [True]
        assert network.traffic.total_messages == 0

    def test_supersession_stops_the_walk_after_a_failed_call(self):
        network, nodes = build()
        contacted, exhausted = [], []
        serve(nodes, "n2", {"value": 2}, contacted)
        network.fail_node("n1")
        checks = []

        def superseded():
            # Unchanged before the first call; superseded by the time the
            # refused call to n1 hands the walk its next step.
            checks.append(network.now)
            return len(checks) > 1

        chase(nodes["n0"], ["n1", "n2"], "read", {}, 8, found,
              on_exhausted=lambda: exhausted.append(True), superseded=superseded)
        network.run()

        assert len(checks) == 2
        assert contacted == []
        assert exhausted == []

    def test_supersession_also_suppresses_exhaustion(self):
        network, nodes = build()
        exhausted = []
        network.fail_node("n1")
        checks = []

        def superseded():
            checks.append(network.now)
            return len(checks) > 1

        chase(nodes["n0"], ["n1"], "read", {}, 8, found,
              on_exhausted=lambda: exhausted.append(True), superseded=superseded)
        network.run()
        assert exhausted == []


class TestResilientChase:
    def test_delegates_to_the_resilience_layer(self):
        network, nodes = build()
        addresses = list(nodes)
        NodeResilience(nodes["n0"], peers=lambda: addresses)
        contacted, accepted = [], []
        serve(nodes, "n1", {"missing": True}, contacted)
        serve(nodes, "n2", {"value": 2}, contacted)

        def accept(src, reply):
            if not found(src, reply):
                return False
            accepted.append(src)
            return True

        chase(nodes["n0"], ["n1", "n2"], "read", {}, 8, accept,
              on_exhausted=lambda: None)
        network.run()

        assert contacted == ["n1", "n2"]
        assert accepted == ["n2"]
        assert nodes["n0"].services["resilience"].stats.calls == 2


def random_keys(count, seed):
    rng = random.Random(seed)
    return [rng.randrange(KEY_SPACE_SIZE) for _ in range(count)]


class TestOwnerRouter:
    ADDRESSES = [f"n{i}" for i in range(12)]

    def snapshots(self):
        healthy = RoutingTable(self.ADDRESSES).snapshot()
        reassigned, _moves = healthy.reassign_failed(["n3", "n7"], 3)
        return {"healthy": healthy, "reassign_failed": reassigned}

    def test_a_replica_set_starts_with_the_owner(self):
        for seed, (name, snapshot) in enumerate(self.snapshots().items()):
            for key in random_keys(20000, seed):
                assert replica_set(snapshot, key, 3)[0] == physical_address(
                    snapshot.owner_of(key)
                ), (name, key)

    def test_resilience_on_picks_the_owner_when_every_peer_is_healthy(self):
        network = Network()
        plain = network.add_node("n0")
        resilient = network.add_node("n1")
        NodeResilience(resilient, peers=lambda: self.ADDRESSES)
        for seed, (name, snapshot) in enumerate(self.snapshots().items()):
            route_plain = owner_router(plain, snapshot, 3)
            route_resilient = owner_router(resilient, snapshot, 3)
            for key in random_keys(2000, seed + 10):
                owner = physical_address(snapshot.owner_of(key))
                assert route_plain(key) == owner, (name, key)
                assert route_resilient(key) == owner, (name, key)
