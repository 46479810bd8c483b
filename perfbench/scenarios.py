"""The benchmark's workloads: seeded inputs, set-up, timed phase, checks.

Each workload drives the system only through its public API (``Cluster``,
``Session``, ``Orchestra``/``Participant``) and runs in one process on one
host thread; its clients are simulated sessions.  Every input of the timed
phase — data, query sequences, edit scripts — is generated from the seed
during set-up, and the expected answers are computed before the timed phase
starts, so checking never runs inside it.

``seconds`` sizes the timed phase: each workload turns it into an operation
count with a fixed rate (:attr:`Workload.RATE`), measured so the phase takes
about that long on a 2-vCPU x86 host.  The simulated work therefore depends
only on the seed and ``seconds``, never on how fast the host is, and the
virtual-time and wire metrics are exact under a pinned ``PYTHONHASHSEED``.
"""

from __future__ import annotations

import gc
import math
import random
import statistics
import time
from dataclasses import dataclass, field

from repro.cache import CacheConfig
from repro.cdss import Orchestra, Participant, SchemaMapping, share_relations
from repro.cluster import Cluster
from repro.common.errors import ReproError
from repro.common.serialization import ENCODING_STATS
from repro.common.types import RelationData, Schema
from repro.net.profiles import EC2_LARGE, LAN_GIGABIT
from repro.query.reference import evaluate_query
from repro.query.service import QueryOptions
from repro.runtime.workload import ClosedLoopDriver, percentile
from repro.storage.client import UpdateBatch
from repro.workloads import tpch


def _probe_work() -> int:
    """A fixed slice of dict/tuple work, the kind the system's hot paths do."""
    table: dict = {}
    for i in range(10_000):
        key = (i & 511, i >> 9)
        table[key] = table.get(key, 0) + i
    return len(table)


class HostProbe:
    """Measures how fast the host runs, at intervals through the timed phase.

    On a shared host the same work can take a fifth longer in one run than in
    another, and the speed changes within a run too.  Every :attr:`EVERY_S`
    seconds, at an operation boundary or after a garbage collection, the
    probe times a fixed slice of work with the collector paused.
    :meth:`speed` turns the slices into the host's speed relative to the
    reference, weighting each stretch of the run by its length, and
    ``host_ops_per_s`` divides the raw rate by it; the raw rate is reported
    per layer as ``host.raw_ops_per_s``.  ``setup_s`` is scaled the same way,
    by slices timed around set-up.  Probe time is left out of host times.
    """

    #: Default seconds between slices.
    EVERY_S = 0.25
    #: Slices whose median estimates the speed over one stretch: about two
    #: seconds, long enough to smooth single slices, short enough to follow
    #: the host's drift.
    WINDOW = 9

    def __init__(self, every_s: float = EVERY_S) -> None:
        self.every_s = every_s
        self.samples: list[float] = []
        #: :meth:`clock` at each slice.
        self.marks: list[float] = []
        self.spent_s = 0.0
        self._due = time.perf_counter() + every_s

    def clock(self) -> float:
        """Host seconds, less the time spent in slices."""
        return time.perf_counter() - self.spent_s

    def measure(self) -> None:
        """Time one slice now."""
        start = time.perf_counter()
        self.marks.append(start - self.spent_s)
        enabled = gc.isenabled()
        gc.disable()
        try:
            begin = time.perf_counter()
            _probe_work()
            self.samples.append(time.perf_counter() - begin)
        finally:
            if enabled:
                gc.enable()
        end = time.perf_counter()
        self.spent_s += end - start
        self._due = end + self.every_s

    def tick(self) -> None:
        """Time one slice if one is due."""
        if time.perf_counter() >= self._due:
            self.measure()

    def _after_collection(self, phase: str, _info: dict) -> None:
        if phase == "stop":
            self.tick()

    def __enter__(self) -> "HostProbe":
        """Also tick after garbage collections, which happen throughout
        long operations, so slices spread evenly over the host time."""
        gc.callbacks.append(self._after_collection)
        return self

    def __exit__(self, *_exc) -> None:
        gc.callbacks.remove(self._after_collection)

    def speed(self) -> float:
        """Host speed relative to the reference: above 1 means faster.

        The mean over the stretches between slices of the reference slice
        time over the local median slice time, each stretch weighted by its
        length.  With fewer than two slices, the median slice alone.
        """
        samples, marks = self.samples, self.marks
        if len(samples) < 2:
            return REFERENCE_PROBE_S / statistics.median(samples) if samples else 1.0
        half = self.WINDOW // 2
        weighted = total = 0.0
        for i in range(1, len(samples)):
            stretch = marks[i] - marks[i - 1]
            local = statistics.median(samples[max(0, i - half):i + half + 1])
            weighted += stretch * REFERENCE_PROBE_S / local
            total += stretch
        return weighted / total


#: Median :class:`HostProbe` slice time on the 2-vCPU x86 host the workload
#: rates were measured on; it only fixes the scale of ``host_ops_per_s``.
REFERENCE_PROBE_S = 0.003


@dataclass
class Outcome:
    """What the timed phase did, in host and virtual time."""

    attempted: int = 0
    failed: int = 0
    #: One line per wrong output; any entry fails the run.
    wrong: list[str] = field(default_factory=list)
    #: Virtual latency of every completed operation (seconds).
    latencies: list[float] = field(default_factory=list)
    #: Virtual admission-queue delay of every operation that has one.
    queue_delays: list[float] = field(default_factory=list)
    #: Host wall-clock time spent in the system's calls.
    host_s: float = 0.0
    #: Reconciliation conflicts met by CDSS imports.
    conflicts: int = 0
    probe: HostProbe = field(default_factory=HostProbe)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed


def same_rows(actual, expected) -> bool:
    """Whether two result sets hold the same rows, in any order.

    Rows are paired in the order of their values with floats rounded to two
    digits; paired floats must then agree to within 1e-9 relative.  Exact
    two-digit rounding alone would flag sums whose last digit flips at a
    ``.xx5`` boundary because the distributed engine adds in another order.
    """
    if len(actual) != len(expected):
        return False

    def order(row):
        return tuple(round(v, 2) if isinstance(v, float) else v for v in row)

    for left, right in zip(sorted(actual, key=order), sorted(expected, key=order)):
        if len(left) != len(right):
            return False
        for a, b in zip(left, right):
            if isinstance(a, float) or isinstance(b, float):
                if not math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-9):
                    return False
            elif a != b:
                return False
    return True


class Workload:
    """Common frame: set-up in three timed parts, then one timed phase."""

    name = ""
    #: Size parameters per ``--size``; ``tiny`` serves the self-tests.
    SIZES: dict[str, dict] = {}
    #: Units of work per second of ``--seconds`` (see module docstring).
    RATE = 1.0
    #: Boundaries the traced run must see called in the timed phase.
    EXPECTED_BOUNDARIES: tuple[str, ...] = ()

    def __init__(self, seed: int, seconds: float, size: str = "full") -> None:
        self.seed = seed
        self.params = self.SIZES[size]
        self.units = max(1, round(seconds * self.RATE))
        self.rng = random.Random(seed)
        self.cluster: Cluster | None = None

    #: Probe slices timed before and after set-up to scale ``setup_s``.
    SETUP_PROBES = 5

    def setup(self) -> dict[str, float]:
        """Generate inputs, build the cluster, load it; returns the times.

        ``scaled_s`` is the whole set-up time scaled to the reference host
        speed, like ``host_ops_per_s``.
        """
        probe = HostProbe()
        for _ in range(self.SETUP_PROBES):
            probe.measure()
        clock = probe.clock
        with probe:
            start = clock()
            self.generate()
            generated = clock()
            self.build()
            built = clock()
            self.load()
            loaded = clock()
        for _ in range(self.SETUP_PROBES):
            probe.measure()
        return {
            "generate_s": generated - start,
            "cluster_s": built - generated,
            "load_s": loaded - built,
            "scaled_s": (loaded - start) * probe.speed(),
        }

    def generate(self) -> None:
        raise NotImplementedError

    def build(self) -> None:
        raise NotImplementedError

    def load(self) -> None:
        """Untimed initial load (nothing by default)."""

    def prepare(self) -> None:
        """Compute expected answers (outside set-up and the timed phase)."""

    def run(self, outcome: Outcome) -> None:
        raise NotImplementedError

    def measure(self, trace=None) -> tuple[Outcome, dict[str, float]]:
        """Run the timed phase; returns its outcome and its metrics.

        ``trace`` (a :class:`layers.LayerTrace`) is reset at the start so its
        counts cover the timed phase only.
        """
        self.prepare()
        cluster = self.cluster
        nodes = [cluster.network.node(address) for address in cluster.addresses]
        traffic = cluster.traffic_snapshot()
        busy = [node.cpu_busy_seconds for node in nodes]
        encoded = sum(ENCODING_STATS.snapshot()["encoded_bytes"].values())
        cache = cluster.cache_statistics()
        virtual_start = cluster.now
        outcome = Outcome()
        if trace is not None:
            # Slices taken inside spans would be charged to the layers.
            outcome.probe = HostProbe(every_s=math.inf)
        gc.collect()
        if trace is not None:
            trace.reset()
        with outcome.probe:
            self.run(outcome)

        virtual_s = cluster.now - virtual_start
        wire = traffic.delta(cluster.traffic_snapshot())
        busy = [node.cpu_busy_seconds - before for node, before in zip(nodes, busy)]
        cache_after = cluster.cache_statistics()

        def cache_delta(tier: str, counter: str) -> int:
            if tier not in cache_after:
                return 0
            return getattr(cache_after[tier], counter) - getattr(cache[tier], counter)

        def hit_ratio(tier: str) -> float:
            hits, misses = cache_delta(tier, "hits"), cache_delta(tier, "misses")
            return hits / (hits + misses) if hits + misses else 0.0

        latencies = outcome.latencies
        completed = outcome.completed
        raw_rate = completed / outcome.host_s if outcome.host_s else 0.0
        metrics = {
            "host_ops_per_s": raw_rate / outcome.probe.speed(),
            "vt_p50_ms": percentile(latencies, 0.50) * 1000.0,
            "vt_p90_ms": percentile(latencies, 0.90) * 1000.0,
            "vt_ops_per_s": completed / virtual_s if virtual_s else 0.0,
            "wire_bytes": wire.total_bytes,
            "wire_messages": wire.total_messages,
            "ok_ops_ratio": completed / outcome.attempted if outcome.attempted else 0.0,
            # Per-layer quantities that need no trace (virtual or counted).
            "runtime.queue_delay_ms_mean": (
                sum(outcome.queue_delays) / len(outcome.queue_delays) * 1000.0
                if outcome.queue_delays else 0.0
            ),
            "runtime.max_in_flight": cluster.runtime.stats.max_in_flight,
            "net.sim_cpu_busy_max_s": max(busy),
            "net.sim_cpu_busy_mean_s": sum(busy) / len(busy),
            "common.codec.encoded_bytes": (
                sum(ENCODING_STATS.snapshot()["encoded_bytes"].values()) - encoded
            ),
            "cache.node.hit_ratio": hit_ratio("node"),
            "cache.result.hit_ratio": hit_ratio("result"),
            "cache.evictions": cache_delta("node", "evictions")
            + cache_delta("result", "evictions"),
            "cdss.conflicts": outcome.conflicts,
            "host.raw_ops_per_s": raw_rate,
            "host.speed": outcome.probe.speed(),
            # Context, not metrics: host time of the system's calls and the
            # latency sample count behind the percentiles.
            "host_s": outcome.host_s,
            "samples": len(latencies),
        }
        return outcome, metrics


# ---------------------------------------------------------------------------
# tpch-olap: the paper's figure queries, four concurrent clients, cache off.
# ---------------------------------------------------------------------------


class TpchOlap(Workload):
    """Read path: closed-loop Q1/Q3/Q5/Q6/Q10 from four initiators."""

    name = "tpch-olap"
    SIZES = {
        "full": {"nodes": 8, "scale_factor": 0.5, "scaling": 8, "clients": 4},
        "tiny": {"nodes": 4, "scale_factor": 0.5, "scaling": 1, "clients": 4},
    }
    #: Queries per client per second of ``--seconds``.
    RATE = 1.0
    EXPECTED_BOUNDARIES = (
        "runtime.submit", "optimizer.compile", "net.dispatch", "net.send", "net.rpc",
        "overlay.snapshot", "overlay.route", "storage.service",
        "storage.localstore.get", "common.codec.encode", "common.hash",
        "query.service", "query.operator", "runtime.handler",
    )

    def generate(self) -> None:
        p = self.params
        # Like TPC-H's own data generator, the database is fixed and the
        # seed draws the query streams.  At this size a seeded database
        # would move the figure queries' join sizes, and with them every
        # metric, by several percent from seed to seed.
        self.instance = tpch.generate(
            p["scale_factor"], seed=0, scaling=p["scaling"] * tpch.DEFAULT_SCALING
        )
        # A balanced, seeded order per client: each query equally often.
        self.sequences = []
        for client in range(p["clients"]):
            names = [tpch.QUERIES[(i + client) % len(tpch.QUERIES)] for i in range(self.units)]
            self.rng.shuffle(names)
            self.sequences.append([(name, tpch.query(name)) for name in names])

    def build(self) -> None:
        self.cluster = Cluster(self.params["nodes"], profile=LAN_GIGABIT)

    def load(self) -> None:
        self.cluster.publish_relations(self.instance.relation_list())

    def prepare(self) -> None:
        self.expected = {
            name: evaluate_query(tpch.query(name), self.instance.relations)
            for name in tpch.QUERIES
        }

    def run(self, outcome: Outcome) -> None:
        cluster = self.cluster
        options = QueryOptions(use_result_cache=False)
        futures = []

        def make_op(session, client, index):
            outcome.probe.tick()
            name, query = self.sequences[client][index]
            future = session.submit_query(query, options=options)
            futures.append((name, future))
            return future

        clients = self.params["clients"]
        driver = ClosedLoopDriver(
            cluster.runtime, clients, make_op, self.units,
            initiators=cluster.addresses[:clients],
        )
        start = outcome.probe.clock()
        report = driver.run()
        outcome.host_s = outcome.probe.clock() - start

        outcome.attempted = len(report.records)
        outcome.failed = report.errors
        outcome.latencies = report.latencies()
        outcome.queue_delays = [r.queue_delay for r in report.records if r.queue_delay is not None]
        for name, future in futures:
            if future.succeeded() and not same_rows(future.result().rows, self.expected[name]):
                outcome.wrong.append(f"{name} ({future.label}) rows differ from the reference")


# ---------------------------------------------------------------------------
# versioned-ingest: first publish and update epochs at 100 nodes.
# ---------------------------------------------------------------------------

KEY_POINT_SQL = "SELECT o_orderkey, o_totalprice FROM orders WHERE o_orderkey = {}"


class VersionedIngest(Workload):
    """Write path: publish TPC-H, then versioned ``orders`` updates."""

    name = "versioned-ingest"
    SIZES = {
        "full": {"nodes": 100, "scale_factor": 10, "scaling": 2,
                 "modify": 50, "insert": 20, "delete": 10, "small": "supplier"},
        "tiny": {"nodes": 10, "scale_factor": 0.5, "scaling": 1,
                 "modify": 10, "insert": 4, "delete": 2, "small": "supplier"},
    }
    #: Update epochs per second of ``--seconds``.
    RATE = 6.0
    #: How many epochs back the small-relation retrieval reads.
    RETRIEVE_LAG = 3
    EXPECTED_BOUNDARIES = (
        "runtime.submit", "optimizer.compile", "net.dispatch", "net.send", "net.rpc",
        "overlay.snapshot", "overlay.route", "overlay.gossip", "storage.client",
        "storage.service", "storage.localstore.get", "storage.localstore.put",
        "common.codec.encode", "common.hash", "query.service", "query.operator",
    )

    def generate(self) -> None:
        p = self.params
        self.instance = tpch.generate(
            p["scale_factor"], seed=self.seed, scaling=p["scaling"] * tpch.DEFAULT_SCALING
        )
        orders = {row[0]: row for row in self.instance.relations["orders"].rows}
        customers = self.instance.row_count("customer")
        next_key = max(orders) + 1
        rng = self.rng
        # One batch, one key-point query and its expected rows per epoch.
        self.epochs = []
        for epoch in range(self.units):
            batch = UpdateBatch(tpch.ORDERS)
            keys = rng.sample(sorted(orders), p["modify"] + p["delete"])
            for key in keys[: p["modify"]]:
                row = list(orders[key])
                row[3] = round(rng.uniform(800.0, 500_000.0), 2)
                orders[key] = tuple(row)
                batch.modifications.append(orders[key])
            for key in keys[p["modify"]:]:
                del orders[key]
                batch.deletes.append((key,))
            for _ in range(p["insert"]):
                row = (next_key, rng.randrange(customers), "O",
                       round(rng.uniform(800.0, 500_000.0), 2), 19980801,
                       rng.choice(tpch.ORDER_PRIORITIES), "Clerk#000000001", 0,
                       "order comment")
                orders[next_key] = row
                batch.inserts.append(row)
                next_key += 1
            # Probe a modified, an inserted and a deleted key in turn.
            key = (batch.modifications, batch.inserts, batch.deletes)[epoch % 3][0][0]
            expected = [(key, orders[key][3])] if key in orders else []
            self.epochs.append((batch, KEY_POINT_SQL.format(key), expected))

    def build(self) -> None:
        self.cluster = Cluster(self.params["nodes"], profile=EC2_LARGE)

    def prepare(self) -> None:
        self.small_rows = list(self.instance.relations[self.params["small"]].rows)

    def _op(self, outcome: Outcome, future):
        """Drive ``future`` to completion and record it; returns the result."""
        self.cluster.network.run()
        outcome.probe.tick()
        outcome.attempted += 1
        if future.queue_delay is not None:
            outcome.queue_delays.append(future.queue_delay)
        if not future.succeeded():
            outcome.failed += 1
            return None
        outcome.latencies.append(future.latency)
        return future.result()

    def run(self, outcome: Outcome) -> None:
        cluster = self.cluster
        addresses = cluster.addresses
        small = self.params["small"]
        answers = []
        start = outcome.probe.clock()
        # Part 1: every relation's first version, under one epoch.
        first = cluster.next_epoch()
        for index, data in enumerate(self.instance.relation_list()):
            session = cluster.session(addresses[index % len(addresses)])
            self._op(outcome, session.submit_publish(data, epoch=first))
        # Part 2: update epochs from rotating initiators.
        for index, (batch, sql, expected) in enumerate(self.epochs):
            session = cluster.session(addresses[index % len(addresses)])
            epoch = self._op(outcome, session.submit_publish(batch))
            if epoch is None:
                continue
            result = self._op(outcome, session.submit_query(sql, epoch=epoch))
            if result is not None:
                answers.append((f"{sql} @{epoch}", result.rows, expected))
            past = max(first, epoch - self.RETRIEVE_LAG)
            result = self._op(outcome, session.submit_retrieve(small, epoch=past))
            if result is not None:
                answers.append((f"retrieve {small} @{past}", result.rows(), self.small_rows))
        outcome.host_s = outcome.probe.clock() - start

        for label, rows, expected in answers:
            if not same_rows(rows, expected):
                outcome.wrong.append(f"{label}: rows differ from the model")


# ---------------------------------------------------------------------------
# cdss-exchange: the paper's publish -> import -> reconcile cycle.
# ---------------------------------------------------------------------------


class CdssExchange(Workload):
    """Four participants editing, publishing and importing each other."""

    name = "cdss-exchange"
    SIZES = {
        "full": {"nodes": 16, "participants": 4, "rows": 2000, "pool": 4000,
                 "modify": 20, "insert": 8, "delete": 2},
        "tiny": {"nodes": 4, "participants": 4, "rows": 200, "pool": 400,
                 "modify": 20, "insert": 8, "delete": 2},
    }
    #: Publish/import rounds per second of ``--seconds``.
    RATE = 0.75
    ATTRIBUTES = ("k", "name", "amount")
    EXPECTED_BOUNDARIES = (
        "net.dispatch", "net.send", "net.rpc", "runtime.submit", "optimizer.compile",
        "storage.client", "storage.service", "storage.localstore.get",
        "storage.localstore.put", "common.codec.encode", "common.hash",
        "query.service", "cache.lookup", "cdss.participant", "cdss.edit", "cdss.exchange",
        "cdss.reconcile",
    )

    def _row(self, participant: int, key: int, version: str):
        return (key, f"p{participant}-{key}-{version}",
                round(self.rng.uniform(1.0, 1000.0), 2))

    def generate(self) -> None:
        p = self.params
        count = p["participants"]
        rng = self.rng
        self.sources = [Schema(f"s{i}", list(self.ATTRIBUTES), key=["k"]) for i in range(count)]
        self.targets = [Schema(f"c{i}", list(self.ATTRIBUTES), key=["k"]) for i in range(count)]
        states = []
        for i in range(count):
            keys = sorted(rng.sample(range(p["pool"]), p["rows"]))
            states.append({key: self._row(i, key, "v0") for key in keys})
        self.initial = [RelationData(self.sources[i], list(state.values()))
                        for i, state in enumerate(states)]
        # Edit scripts per round and participant, plus each source's state
        # after the round (the state the round's imports must see).
        self.rounds = []
        for number in range(1, self.units + 1):
            scripts, after = [], []
            for i, state in enumerate(states):
                script = []
                touched = rng.sample(sorted(state), p["modify"] + p["delete"])
                for key in touched[: p["modify"]]:
                    state[key] = self._row(i, key, f"r{number}")
                    script.append(("modify", state[key]))
                for key in touched[p["modify"]:]:
                    del state[key]
                    script.append(("delete", (key,)))
                absent = sorted(set(range(p["pool"])) - set(state))
                for key in rng.sample(absent, p["insert"]):
                    state[key] = self._row(i, key, f"r{number}")
                    script.append(("insert", state[key]))
                scripts.append(script)
                after.append(list(state.values()))
            self.rounds.append((scripts, after))

    def build(self) -> None:
        p = self.params
        self.orchestra = Orchestra(p["nodes"])
        # Orchestra takes no cache parameter: give it a caching cluster
        # before anyone joins.
        self.orchestra.cluster = self.cluster = Cluster(
            p["nodes"], profile=LAN_GIGABIT, cache_config=CacheConfig()
        )
        self.participants = []
        for i, (source, target) in enumerate(zip(self.sources, self.targets)):
            mappings = [
                SchemaMapping(f"s{j}_to_c{i}", target, [other])
                for j, other in enumerate(self.sources) if j != i
            ]
            participant = Participant(f"p{i}", [source, target], mappings,
                                      trust={f"p{i}": 10, "import": 5})
            self.participants.append(self.orchestra.add_participant(participant))

    def load(self) -> None:
        for participant, data in zip(self.participants, self.initial):
            share_relations(participant, [data])
            participant.publish()
        for participant in self.participants:
            participant.import_updates()

    def prepare(self) -> None:
        # Expected mapping rows per round: the reference evaluator over the
        # source states published in that round, keyed by target key.
        self.expected = []
        for _scripts, after in self.rounds:
            per_source = []
            for i, rows in enumerate(after):
                mapping = SchemaMapping("reference", self.targets[0], [self.sources[i]])
                answer = evaluate_query(mapping.to_query(), {
                    self.sources[i].name: RelationData(self.sources[i], rows)
                })
                per_source.append({row[0]: tuple(row) for row in answer})
            self.expected.append(per_source)

    def _check_import(self, outcome: Outcome, i: int, number: int, before: dict,
                      report, expected_epoch: int) -> None:
        label = f"round {number} import by p{i}"
        if report.epoch != expected_epoch:
            outcome.wrong.append(f"{label}: epoch {report.epoch}, expected {expected_epoch}")
        others = [j for j in range(len(self.participants)) if j != i]
        if len(report.deltas) != len(others):
            outcome.wrong.append(f"{label}: {len(report.deltas)} deltas for {len(others)} mappings")
            return
        for j, delta in zip(others, report.deltas):
            rows = self.expected[number - 1][j]
            inserts = sorted(row for key, row in rows.items() if key not in before)
            changed = sorted(row for key, row in rows.items()
                             if key in before and before[key] != row)
            unchanged = len(rows) - len(inserts) - len(changed)
            if (sorted(delta.inserts) != inserts or sorted(delta.modifications) != changed
                    or delta.unchanged != unchanged):
                outcome.wrong.append(f"{label}: mapping rows of s{j} differ from the reference")

    def run(self, outcome: Outcome) -> None:
        cluster = self.cluster
        latency = cluster.metrics.histogram("op.latency")
        clock = outcome.probe.clock

        def latency_sum() -> float:
            return sum(value["sum"] for _name, _tags, value in latency.series())

        def timed(call):
            """One participant operation: host time, virtual latency, outcome."""
            outcome.probe.tick()
            outcome.attempted += 1
            before = latency_sum()
            start = clock()
            try:
                result = call()
            except ReproError:
                outcome.host_s += clock() - start
                outcome.failed += 1
                return None
            outcome.host_s += clock() - start
            outcome.latencies.append(latency_sum() - before)
            return result

        for number, (scripts, _after) in enumerate(self.rounds, start=1):
            for i, (participant, script) in enumerate(zip(self.participants, scripts)):

                def publish(participant=participant, script=script, relation=f"s{i}"):
                    for action, values in script:
                        getattr(participant, action)(relation, *values)
                    return participant.publish()

                timed(publish)
            epoch = cluster.current_epoch
            for i, participant in enumerate(self.participants):
                target = f"c{i}"
                before = {row[0]: tuple(row) for row in participant.local_database[target].rows}
                report = timed(participant.import_updates)
                if report is None:
                    continue
                self._check_import(outcome, i, number, before, report, epoch)
                outcome.conflicts += len(report.reconciliation.conflicts)


WORKLOADS = {cls.name: cls for cls in (TpchOlap, VersionedIngest, CdssExchange)}
