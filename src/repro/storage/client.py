"""Storage client: versioned publish and Algorithm-1 retrieval.

A :class:`StorageClient` runs on the node that initiates a storage operation
(a participant publishing its update log, or a node retrieving a relation
version).  It decides *placement* using a routing snapshot taken from the
node's membership view, talks to the per-node :class:`~repro.storage.service.
StorageService` instances over RPC, and implements the two protocols of
Section IV:

Publish
    Creating a new version of a relation.  New tuples are written to their
    data storage nodes (and replicas), affected index pages get new versions,
    unaffected pages are *shared* with the previous version, and a new
    relation coordinator record plus catalog entry is written for the epoch.

Retrieve (Algorithm 1)
    Look up the relation coordinator at ``h(⟨R, e⟩)``, fan scan requests out
    to the index nodes holding the pages, which filter tuple IDs with the
    sargable predicate and forward requests to the data storage nodes, which
    finally send the matching tuples directly back to the requester —
    bypassing the index node and coordinator, exactly as in Example 4.2.

Both protocols tolerate data that is not where the routing snapshot says it
should be (e.g. just after a membership change): reads fall back to the
replicas of the missing item before giving up, so stale data is never
returned and missing data is only reported when no replica holds it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Mapping, Sequence

from ..cache.node import NodeCache
from ..common.errors import EpochNotFoundError, RelationNotFoundError, TupleNotFoundError
from ..common.serialization import ENCODING_STATS, EncodedScanBatch
from ..common.types import Schema, TupleId, Value, VersionedTuple
from ..net.simnet import SimNode
from ..net.transport import RpcEndpoint, rpc_endpoint
from ..overlay.membership import MembershipView
from ..overlay.replication import replica_set
from ..overlay.routing import RoutingSnapshot, physical_address
from .pages import (
    CoordinatorRecord,
    IndexPage,
    PageId,
    PageRef,
    catalog_key,
    choose_page_count,
    coordinator_key,
    initial_page_layout,
    page_order,
)
from .service import INDEX_SCAN_COST_PER_ID, StorageService


@dataclass
class UpdateBatch:
    """One participant's published changes to a single relation.

    ``inserts`` and ``modifications`` carry full value tuples; a modification
    replaces the current version of the tuple with the same key values.
    ``deletes`` carries key-value tuples only.
    """

    schema: Schema
    inserts: list[tuple[Value, ...]] = field(default_factory=list)
    modifications: list[tuple[Value, ...]] = field(default_factory=list)
    deletes: list[tuple[Value, ...]] = field(default_factory=list)

    @property
    def relation(self) -> str:
        return self.schema.name

    def is_empty(self) -> bool:
        return not (self.inserts or self.modifications or self.deletes)

    def change_count(self) -> int:
        return len(self.inserts) + len(self.modifications) + len(self.deletes)


def _pushdown():
    """The descriptor/pruning helpers of :mod:`repro.query.pushdown`.

    Imported lazily: ``repro.query`` eagerly imports its service module,
    which imports this one, so a module-level import would be circular.
    """
    from ..query import pushdown

    return pushdown


def search_targets(
    snapshot: RoutingSnapshot,
    key: int,
    replication_factor: int,
    exclude: Iterable[str] = (),
) -> list[str]:
    """Nodes to try, in order, when looking for the item stored at ``key``.

    The item's replica set under ``snapshot`` comes first.  The remaining live
    nodes of the snapshot follow, because after a membership change data may
    legitimately sit outside the current replica set until background
    replication catches up — the paper's "proactively try to retrieve the
    missing state from other nearby nodes" fallback (Section IV).
    """
    seen = set(exclude)
    ordered = [addr for addr in replica_set(snapshot, key, replication_factor)
               if addr not in seen]
    seen.update(ordered)
    ordered.extend(addr for addr in snapshot.physical_nodes() if addr not in seen)
    return ordered


def chase(
    node: SimNode,
    targets: Sequence[str],
    method: str,
    payload: Mapping[str, object],
    size: int,
    accept: Callable[[str, Mapping[str, object]], bool],
    on_exhausted: Callable[[], None],
    superseded: Callable[[], bool] | None = None,
) -> None:
    """Ask ``targets`` for an idempotent read until ``accept`` takes a reply.

    The one replica search behind every "fetch what this node lacks" path
    (:func:`search_targets` supplies the candidates): a replica answering
    "not here" says nothing about the others, so ``accept(src, reply)``
    returns False to send the search on, exactly like a failed call.
    ``on_exhausted`` fires once when no candidate is left.

    With the node's resilience layer installed this is
    :meth:`~repro.resilience.NodeResilience.chase_call` (health-ranked,
    hedged, adaptively timed).  Without it the targets are walked strictly
    in order, one call at a time.  ``superseded`` is checked by that walk
    before each step and ends it silently once it returns True; the
    resilience layer's chase ignores it, so ``accept`` and ``on_exhausted``
    must check for supersession themselves.
    """
    resilience = node.services.get("resilience")
    if resilience is not None:
        resilience.chase_call(targets, method, payload, size, accept, on_exhausted)
        return
    rpc = rpc_endpoint(node)

    def attempt(index: int) -> None:
        if superseded is not None and superseded():
            return
        if index >= len(targets):
            on_exhausted()
            return
        target = targets[index]
        rpc.call(
            target, method, payload, size,
            on_reply=lambda reply: accept(target, reply) or attempt(index + 1),
            on_failure=lambda _addr: attempt(index + 1),
        )

    attempt(0)


def owner_router(
    node: SimNode, snapshot: RoutingSnapshot, replication_factor: int
) -> Callable[[int], str]:
    """Map a key to the node its request is sent to; build once per batch.

    Without a resilience layer that is the key's owner under ``snapshot``.
    With one, any replica can serve the request (the handlers chase what
    they lack), so suspected replicas are routed around; with every replica
    healthy that is the owner too, since a replica set starts with its
    owner.
    """
    resilience = node.services.get("resilience")
    if resilience is None:
        return lambda key: physical_address(snapshot.owner_of(key))
    return lambda key: resilience.select_target(
        replica_set(snapshot, key, replication_factor)
    )


class _Completion:
    """Counts outstanding sub-operations and fires a callback when all finish."""

    def __init__(self, on_complete: Callable[[], None]) -> None:
        self._on_complete = on_complete
        self._outstanding = 0
        self._sealed = False
        self._fired = False

    def add(self, count: int = 1) -> None:
        self._outstanding += count

    def done(self, count: int = 1) -> None:
        self._outstanding -= count
        self._maybe_fire()

    def seal(self) -> None:
        self._sealed = True
        self._maybe_fire()

    def _maybe_fire(self) -> None:
        if self._sealed and self._outstanding <= 0 and not self._fired:
            self._fired = True
            self._on_complete()


@dataclass
class RetrieveResult:
    """Outcome of a retrieval: the matching tuples plus basic statistics."""

    relation: str
    epoch: int
    resolved_epoch: int
    tuples: list[VersionedTuple]
    pages_scanned: int = 0
    missing: list[TupleId] = field(default_factory=list)
    #: Pages whose tuple batch was served from the local version-keyed cache
    #: (no index/data-node traffic at all for those pages).
    pages_from_cache: int = 0

    def rows(self) -> list[tuple[Value, ...]]:
        return [t.values for t in self.tuples]


class StorageClient:
    """Publish and retrieve operations issued from one node."""

    def __init__(
        self,
        node: SimNode,
        membership: MembershipView,
        replication_factor: int = 3,
        page_capacity: int = 2048,
        cache: NodeCache | None = None,
    ) -> None:
        self.node = node
        self.rpc: RpcEndpoint = rpc_endpoint(node)
        self.membership = membership
        self.replication_factor = replication_factor
        self.page_capacity = page_capacity
        #: Optional version-keyed cache: coordinator records, index pages,
        #: per-page tuple batches and epoch resolutions are served from (and
        #: fill) it instead of re-crossing the simulated network.
        self.cache = cache
        self._retrievals: dict[int, "_RetrieveOperation"] = {}
        self._next_request_id = 0
        self.rpc.register("store.retrieve_manifest", self._on_retrieve_manifest)
        self.rpc.register("store.retrieve_result", self._on_retrieve_result)
        node.services["storage_client"] = self

    # ------------------------------------------------------------------ publish

    def publish(
        self,
        batch: UpdateBatch,
        epoch: int,
        on_complete: Callable[[CoordinatorRecord], None],
        snapshot: RoutingSnapshot | None = None,
        previous_epoch_hint: int | None = None,
    ) -> None:
        """Publish ``batch`` as the version of its relation at ``epoch``.

        ``previous_epoch_hint`` is a floor on the previous version: an epoch
        the caller *knows* was committed (the runtime remembers the last
        epoch it acknowledged per relation).  It protects against building on
        a stale base when every current catalog replica happens to miss the
        newest entry — possible right after a crash-restarted node, whose
        durable store predates that entry, reclaimed the catalog range.
        """
        snapshot = snapshot or self.membership.snapshot()
        operation = _PublishOperation(
            self, batch, epoch, snapshot, on_complete,
            previous_epoch_hint=previous_epoch_hint,
        )
        operation.start()

    # ----------------------------------------------------------------- retrieve

    def retrieve(
        self,
        relation: str,
        epoch: int,
        on_complete: Callable[[RetrieveResult], None],
        key_predicate: Callable[[tuple[Value, ...]], bool] | None = None,
        on_error: Callable[[Exception], None] | None = None,
        snapshot: RoutingSnapshot | None = None,
        predicate=None,
        projection=None,
    ) -> None:
        """Retrieve all tuples of ``relation`` visible at ``epoch`` (Algorithm 1).

        ``key_predicate`` filters at the *index* nodes (over tuple-ID key
        values); it may be an opaque callable (legacy API) or a serializable
        :class:`~repro.query.pushdown.ScanPredicate`.  ``predicate`` (a
        :class:`ScanPredicate` over the relation's full attribute signature)
        and ``projection`` (a :class:`~repro.query.pushdown.ScanProjection`)
        are pushed to the *data* nodes, which filter and project each tuple
        before it is shipped back — the storage-side half of the wire-traffic
        optimizer.  Projected result tuples carry their values in the
        projection's column order.
        """
        snapshot = snapshot or self.membership.snapshot()
        self._next_request_id += 1
        request_id = self._next_request_id
        operation = _RetrieveOperation(
            self, request_id, relation, epoch, key_predicate, snapshot, on_complete, on_error,
            predicate=predicate, projection=projection,
        )
        self._retrievals[request_id] = operation
        try:
            operation.start()
        except Exception:
            self._retrievals.pop(request_id, None)
            raise

    # -------------------------------------------------------- epoch resolution

    def fetch_catalog_epochs(
        self,
        relation: str,
        snapshot: RoutingSnapshot,
        on_epochs: Callable[[set[int]], None],
    ) -> None:
        """Collect the union of the relation's published epochs.

        The catalog entry is a *grow-only set* replicated by set-union writes,
        so after membership churn different replicas may hold different
        subsets — a node that just inherited the catalog range knows only the
        epochs published since, while the previous holders know the older
        ones.  Trusting any single reply can therefore silently hide a
        committed version (a retrieval resolves too far back; worse, a
        publisher builds the next version on a stale base and loses the
        intervening batch from every later version).  The whole current
        replica set is queried in parallel and the replies are unioned; only
        when every member is down or empty does the search extend, one node
        at a time, across the rest of the snapshot.  ``on_epochs`` receives
        the union (possibly empty for an unpublished relation).
        """
        targets = search_targets(snapshot, catalog_key(relation), self.replication_factor,
                                 exclude=())
        primary = targets[: self.replication_factor]
        rest = targets[self.replication_factor:]
        epochs: set[int] = set()
        outstanding = {"count": len(primary)}
        resilience = self.node.services.get("resilience")

        def accept(_src: str, reply: Mapping[str, object]) -> bool:
            if reply.get("missing"):
                return False
            epochs.update(reply["epochs"])
            on_epochs(set(epochs))
            return True

        def conclude() -> None:
            if epochs:
                on_epochs(set(epochs))
                return
            chase(
                self.node, rest, "store.get_catalog", {"relation": relation}, 24,
                accept, on_exhausted=lambda: on_epochs(set(epochs)),
            )

        def answered(reply: Mapping[str, object]) -> None:
            if not reply.get("missing"):
                epochs.update(reply["epochs"])
            outstanding["count"] -= 1
            if outstanding["count"] == 0:
                conclude()

        def failed(_addr: str) -> None:
            outstanding["count"] -= 1
            if outstanding["count"] == 0:
                conclude()

        if not primary:
            on_epochs(set())
            return
        for target in primary:
            # The union must wait for every replica-set member, so a slow one
            # is an unavoidable straggler unless the wait is bounded: with
            # resilience on, an adaptive timeout converts "degraded replica"
            # into the already-handled "unreachable replica" (conclude with
            # the union so far, extend the search only if it is empty).
            self.rpc.call(
                target, "store.get_catalog", {"relation": relation}, 24,
                on_reply=answered, on_failure=failed,
                timeout=(
                    resilience.call_timeout(target)
                    if resilience is not None else None
                ),
            )

    def resolve_epoch(
        self,
        relation: str,
        epoch: int,
        snapshot: RoutingSnapshot,
        on_resolved: Callable[[int], None],
        on_error: Callable[[Exception], None],
    ) -> None:
        """Find the newest publish epoch of ``relation`` that is ≤ ``epoch``."""
        if self.cache is not None:
            cached = self.cache.get_resolution(relation, epoch)
            if cached is not None:
                self.node.network.schedule(1e-6, lambda: on_resolved(cached))
                return

        def resolve(known: set[int]) -> None:
            if not known:
                on_error(RelationNotFoundError(f"relation {relation!r} is not published"))
                return
            usable = [e for e in known if e <= epoch]
            if not usable:
                on_error(EpochNotFoundError(
                    f"relation {relation!r} has no version at or before epoch {epoch}"))
                return
            resolved = max(usable)
            if self.cache is not None:
                self.cache.put_resolution(relation, epoch, resolved)
            on_resolved(resolved)

        self.fetch_catalog_epochs(relation, snapshot, resolve)

    def fetch_coordinator(
        self,
        relation: str,
        epoch: int,
        snapshot: RoutingSnapshot,
        on_record: Callable[[CoordinatorRecord], None],
        on_error: Callable[[Exception], None],
    ) -> None:
        """Fetch the coordinator record for ``relation``@``epoch`` with failover."""
        if self.cache is not None:
            cached = self.cache.get_coordinator(relation, epoch)
            if cached is not None:
                self.node.network.schedule(1e-6, lambda: on_record(cached))
                return
        targets = search_targets(snapshot, coordinator_key(relation, epoch),
                                 self.replication_factor, exclude=())

        def deliver(record: CoordinatorRecord) -> None:
            if self.cache is not None:
                self.cache.put_coordinator(record)
            on_record(record)

        def not_found() -> None:
            on_error(RelationNotFoundError(
                f"coordinator record for {relation!r}@{epoch} not found on any replica"))

        chase(
            self.node, targets, "store.get_coordinator",
            {"relation": relation, "epoch": epoch}, 32,
            accept=lambda _src, rep: (
                False if rep.get("missing") else (deliver(rep["record"]) or True)
            ),
            on_exhausted=not_found,
        )

    # ----------------------------------------------- retrieve message handlers

    def _on_retrieve_manifest(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        operation = self._retrievals.get(payload["request_id"])
        if operation is not None:
            operation.on_manifest(payload)

    def _on_retrieve_result(self, _src: str, payload: Mapping[str, object], _respond) -> None:
        operation = self._retrievals.get(payload["request_id"])
        if operation is not None:
            operation.on_result(payload)

    def _finish_retrieval(self, request_id: int) -> None:
        self._retrievals.pop(request_id, None)

    def reset_volatile(self) -> None:
        """Abandon all in-flight retrievals after a crash-restart.

        Their futures were failed when the node crashed; the operations'
        failure listeners must be unhooked too, or the next unrelated failure
        would resurrect them as zombies on the restarted node.
        """
        for operation in list(self._retrievals.values()):
            operation._finished = True
            self.node.remove_failure_listener(operation._on_peer_failure)
        self._retrievals.clear()

    def _rekey_retrieval(self, operation: "_RetrieveOperation") -> None:
        """Give a restarting retrieval a fresh request id.

        Results addressed to the old id find no operation and are dropped —
        that is what keeps a restarted retrieval duplicate-free even when
        data nodes from the aborted attempt are still pushing results.
        """
        self._retrievals.pop(operation.request_id, None)
        self._next_request_id += 1
        operation.request_id = self._next_request_id
        self._retrievals[operation.request_id] = operation


class _PublishOperation:
    """State machine for publishing one :class:`UpdateBatch` at one epoch."""

    def __init__(
        self,
        client: StorageClient,
        batch: UpdateBatch,
        epoch: int,
        snapshot: RoutingSnapshot,
        on_complete: Callable[[CoordinatorRecord], None],
        previous_epoch_hint: int | None = None,
    ) -> None:
        self.client = client
        self.batch = batch
        self.epoch = epoch
        self.snapshot = snapshot
        self.on_complete = on_complete
        self.relation = batch.relation
        self.previous_epoch_hint = previous_epoch_hint
        self._known_epochs: set[int] = set()
        self._previous_record: CoordinatorRecord | None = None
        self._previous_pages: dict[PageId, IndexPage] = {}

    # -- step 1: discover the previous version -------------------------------

    def start(self) -> None:
        # The previous version is looked up through the union of the catalog
        # replicas (see StorageClient.fetch_catalog_epochs): building on a
        # stale catalog subset would silently drop the unseen batches from
        # this and every later version.
        self.client.fetch_catalog_epochs(self.relation, self.snapshot, self._with_catalog)

    def _with_catalog(self, known_epochs: set) -> None:
        self._known_epochs = set(known_epochs)
        if self.previous_epoch_hint is not None:
            # The caller vouches for this epoch even if no reachable catalog
            # replica lists it; the coordinator record it points to is found
            # by exhaustive search.
            self._known_epochs.add(self.previous_epoch_hint)
        previous_epochs = [e for e in self._known_epochs if e < self.epoch]
        if not previous_epochs:
            self._build_first_version()
            return
        previous_epoch = max(previous_epochs)
        self.client.fetch_coordinator(
            self.relation,
            previous_epoch,
            self.snapshot,
            on_record=self._with_previous_record,
            on_error=lambda exc: self._build_first_version(),
        )

    def _with_previous_record(self, record: CoordinatorRecord) -> None:
        self._previous_record = record
        affected = self._affected_pages(record)
        if not affected:
            # No overlap with existing pages (can only happen for an empty
            # batch); simply reuse the old record under the new epoch.
            self._write_version(list(record.pages), [], [])
            return
        completion = _Completion(lambda: self._build_incremental_version(affected))
        cache = self.client.cache
        for ref in affected:
            if cache is not None:
                cached_page = cache.get_page(ref.page_id)
                if cached_page is not None:
                    # Page versions are immutable: a previously fetched copy of
                    # an affected page can seed the new version locally.
                    self._previous_pages[ref.page_id] = cached_page
                    continue
            completion.add()
            self._fetch_previous_page(ref, completion)
        completion.seal()

    def _fetch_previous_page(self, ref: PageRef, completion: _Completion) -> None:
        """Fetch one affected previous-version page, searching exhaustively.

        The new version of an affected page is built as *previous page ±
        changes*, so fetching the previous version is correctness-critical: a
        miss silently treated as an empty page would drop every unchanged
        tuple ID the page carried.  After a membership change the page may
        legitimately live outside its current replica set (the ring moved and
        background replication has not caught up), so a ``missing`` reply
        fails over to the next candidate exactly like a crashed one, across
        *all* live nodes of the snapshot — the paper's "search other nodes
        nearby in the system until it found a copy" rule.
        """
        local = self.client.node.services.get("storage")
        if local is not None:
            page = local.local_or_cached_page(ref.page_id)
            if page is not None:
                self._previous_pages[ref.page_id] = page
                completion.done()
                return

        targets = search_targets(
            self.snapshot, ref.storage_key, self.client.replication_factor,
            exclude=(self.client.node.address,),
        )
        # When no live node holds the page its tuples are unrecoverable (the
        # failure exceeded the replication factor): publishing proceeds with
        # an empty base rather than deadlocking.
        chase(
            self.client.node, targets, "store.get_page", {"page_id": ref.page_id}, 32,
            accept=lambda _src, rep: (
                False if rep.get("missing")
                else (self._store_previous_page(ref, rep, completion) or True)
            ),
            on_exhausted=completion.done,
        )

    def _store_previous_page(self, ref: PageRef, reply: Mapping[str, object], completion: _Completion) -> None:
        self._previous_pages[ref.page_id] = reply["page"]
        if self.client.cache is not None:
            self.client.cache.put_page(reply["page"])
        completion.done()

    def _affected_pages(self, record: CoordinatorRecord) -> list[PageRef]:
        schema = self.batch.schema
        changed_hashes = [
            schema.tuple_id_for(values, 0).hash_key
            for values in list(self.batch.inserts) + list(self.batch.modifications)
        ] + [schema.tuple_id_for_key(key, 0).hash_key for key in self.batch.deletes]
        affected: dict[PageId, PageRef] = {}
        for hash_key in changed_hashes:
            ref = record.page_for_hash(hash_key)
            affected[ref.page_id] = ref
        return list(affected.values())

    # -- step 2: build the new version ----------------------------------------

    def _build_first_version(self) -> None:
        schema = self.batch.schema
        num_pages = choose_page_count(
            len(self.batch.inserts), len(self.snapshot.nodes), self.client.page_capacity
        )
        layout = initial_page_layout(self.relation, self.epoch, num_pages)
        # The layout tiles the ring, so the record's bisect finds each
        # tuple's page in O(log pages).
        placement = CoordinatorRecord(self.relation, self.epoch, layout)
        pages = {ref.page_id: IndexPage(ref, []) for ref in layout}
        new_tuples: list[VersionedTuple] = []
        for values in self.batch.inserts:
            tid = schema.tuple_id_for(values, self.epoch)
            new_tuples.append(VersionedTuple(self.relation, tid, values))
            pages[placement.page_for_hash(tid.hash_key).page_id].tuple_ids.append(tid)
        for page in pages.values():
            page.tuple_ids.sort(key=page_order)
        self._write_version(list(layout), list(pages.values()), new_tuples)

    def _build_incremental_version(self, affected: Sequence[PageRef]) -> None:
        schema = self.batch.schema
        record = self._previous_record
        assert record is not None
        new_tuples: list[VersionedTuple] = []
        inserts_by_page: dict[PageId, list[TupleId]] = {}
        removals_by_page: dict[PageId, list[TupleId]] = {}

        def page_of(hash_key: int) -> PageRef:
            return record.page_for_hash(hash_key)

        for values in self.batch.inserts:
            tid = schema.tuple_id_for(values, self.epoch)
            new_tuples.append(VersionedTuple(self.relation, tid, values))
            inserts_by_page.setdefault(page_of(tid.hash_key).page_id, []).append(tid)

        for values in self.batch.modifications:
            key_values = schema.key_of(values)
            tid = schema.tuple_id_for(values, self.epoch)
            new_tuples.append(VersionedTuple(self.relation, tid, values))
            ref = page_of(tid.hash_key)
            inserts_by_page.setdefault(ref.page_id, []).append(tid)
            old = self._find_current_id(ref, key_values)
            if old is not None:
                removals_by_page.setdefault(ref.page_id, []).append(old)

        for key in self.batch.deletes:
            key_values = tuple(key)
            hash_key = schema.tuple_id_for_key(key_values, 0).hash_key
            ref = page_of(hash_key)
            old = self._find_current_id(ref, key_values)
            if old is not None:
                removals_by_page.setdefault(ref.page_id, []).append(old)

        new_refs: list[PageRef] = []
        new_pages: list[IndexPage] = []
        sequence = 0
        for ref in record.pages:
            if ref.page_id not in inserts_by_page and ref.page_id not in removals_by_page:
                new_refs.append(ref)  # page shared with the previous version
                continue
            previous = self._previous_pages.get(ref.page_id, IndexPage(ref, []))
            new_page = previous.with_changes(
                self.epoch,
                sequence,
                inserts=inserts_by_page.get(ref.page_id, ()),
                removals=removals_by_page.get(ref.page_id, ()),
            )
            sequence += 1
            new_refs.append(new_page.ref)
            new_pages.append(new_page)
        self._write_version(new_refs, new_pages, new_tuples)

    def _find_current_id(self, ref: PageRef, key_values: tuple[Value, ...]) -> TupleId | None:
        page = self._previous_pages.get(ref.page_id)
        if page is None:
            return None
        candidates = [tid for tid in page.tuple_ids if tid.key_values == key_values]
        if not candidates:
            return None
        return max(candidates, key=lambda tid: tid.epoch)

    # -- step 3: write everything out -------------------------------------------

    def _write_version(
        self,
        refs: list[PageRef],
        new_pages: list[IndexPage],
        new_tuples: list[VersionedTuple],
    ) -> None:
        """Write the version out, with the catalog entry as the commit point.

        Tuples, inverse entries, index pages and the coordinator record fan
        out concurrently; the catalog entry — what epoch resolution consults —
        is written only once all of them are acknowledged (or failed over).
        A publisher that crashes mid-publish therefore leaves either a fully
        readable version or an invisible orphan: the torn state where a
        resolvable epoch points at half-written pages cannot occur, and the
        next publish of the relation builds on the last *committed* version.
        """
        record = CoordinatorRecord(self.relation, self.epoch, refs)
        completion = _Completion(lambda: self._commit(record))
        replication = self.client.replication_factor
        rpc = self.client.rpc

        # Tuples, batched by destination node.
        tuples_by_destination: dict[str, list[VersionedTuple]] = {}
        for tup in new_tuples:
            for destination in replica_set(self.snapshot, tup.hash_key, replication):
                tuples_by_destination.setdefault(destination, []).append(tup)
        for destination, tuples in tuples_by_destination.items():
            completion.add()
            size = sum(t.estimated_size() for t in tuples)
            rpc.call(
                destination, "store.put_tuples", {"tuples": tuples}, size,
                on_reply=lambda _rep: completion.done(),
                on_failure=lambda _addr: completion.done(),
            )

        # Inverse entries (tuple key → page holding its current version),
        # co-located with the tuples themselves.
        inverse_by_destination: dict[str, list[tuple]] = {}
        ref_by_page = {ref.page_id: ref for ref in refs}
        for page in new_pages:
            for tid in page.tuple_ids:
                if tid.epoch != self.epoch:
                    continue
                entry = (tid.key_values, ref_by_page[page.page_id], self.epoch)
                for destination in replica_set(self.snapshot, tid.hash_key, replication):
                    inverse_by_destination.setdefault(destination, []).append(entry)
        for destination, entries in inverse_by_destination.items():
            completion.add()
            rpc.call(
                destination, "store.put_inverse",
                {"relation": self.relation, "entries": entries}, 48 * len(entries),
                on_reply=lambda _rep: completion.done(),
                on_failure=lambda _addr: completion.done(),
            )

        # Index pages, placed at the midpoint of their hash range.
        for page in new_pages:
            for destination in replica_set(self.snapshot, page.ref.storage_key, replication):
                completion.add()
                rpc.call(
                    destination, "store.put_page", {"page": page}, page.estimated_size(),
                    on_reply=lambda _rep: completion.done(),
                    on_failure=lambda _addr: completion.done(),
                )

        # Relation coordinator record (the catalog entry follows in _commit).
        for destination in replica_set(
            self.snapshot, coordinator_key(self.relation, self.epoch), replication
        ):
            completion.add()
            rpc.call(
                destination, "store.put_coordinator", {"record": record},
                record.estimated_size(),
                on_reply=lambda _rep: completion.done(),
                on_failure=lambda _addr: completion.done(),
            )

        completion.seal()

    def _commit(self, record: CoordinatorRecord) -> None:
        """Write the catalog entries — the version becomes resolvable — then ack.

        The write carries every epoch this publish learnt of, not just its
        own: catalog entries are grow-only sets merged on write, so each
        publish doubles as an anti-entropy round that back-fills replicas
        (e.g. a crash-restarted node whose durable catalog predates recent
        versions) with the epochs they missed.
        """
        epochs = sorted(self._known_epochs | {self.epoch})
        completion = _Completion(lambda: self.on_complete(record))
        rpc = self.client.rpc
        for destination in replica_set(
            self.snapshot, catalog_key(self.relation), self.client.replication_factor
        ):
            completion.add()
            rpc.call(
                destination, "store.put_catalog",
                {"relation": self.relation, "epochs": epochs}, 8 + 8 * len(epochs),
                on_reply=lambda _rep: completion.done(),
                on_failure=lambda _addr: completion.done(),
            )
        completion.seal()


class _RetrieveOperation:
    """State machine for one Algorithm-1 retrieval."""

    def __init__(
        self,
        client: StorageClient,
        request_id: int,
        relation: str,
        epoch: int,
        key_predicate: Callable[[tuple[Value, ...]], bool] | None,
        snapshot: RoutingSnapshot,
        on_complete: Callable[[RetrieveResult], None],
        on_error: Callable[[Exception], None] | None,
        predicate=None,
        projection=None,
    ) -> None:
        self.client = client
        self.request_id = request_id
        self.relation = relation
        self.epoch = epoch
        self.key_predicate = key_predicate
        #: Full-tuple predicate descriptor pushed to the data nodes.
        self.predicate = predicate
        #: Projection descriptor pushed to the data nodes (None = full rows).
        self.projection = projection
        self.snapshot = snapshot
        self.on_complete = on_complete
        self.on_error = on_error or (lambda exc: (_ for _ in ()).throw(exc))
        self.resolved_epoch: int | None = None
        self._expected_pages = 0
        self._manifests: dict[PageId, int] = {}
        self._results_per_page: dict[PageId, int] = {}
        self._tuples: list[VersionedTuple] = []
        self._missing: list[TupleId] = []
        self._finished = False
        # Per-page tuple accumulation for the version-keyed batch cache; only
        # unfiltered, unprojected retrievals may *fill* it (the batch must be
        # the page's complete answer).  Filtered retrievals still *read* it:
        # a cached full batch is filtered/projected locally, shipping nothing.
        self._cacheable = (
            key_predicate is None and predicate is None and projection is None
            and client.cache is not None
        )
        self._page_tuples: dict[PageId, list[VersionedTuple]] = {}
        self._cached_pages: set[PageId] = set()
        self._unavailable_pages: set[PageId] = set()
        self._pages_from_cache = 0
        #: Bumped on every failure-driven restart; callbacks belonging to an
        #: earlier attempt are discarded when they fire late.
        self._attempt = 0
        self._restarts = 0

    #: Retrieval restarts tolerated before the operation gives up.  Each
    #: restart corresponds to (at least) one node failing mid-retrieval.
    MAX_RESTARTS = 3

    def start(self) -> None:
        # Algorithm 1's data flow is push-based (casts from index and data
        # nodes back to the requester), so a participant crashing mid-flight
        # would otherwise leave the retrieval waiting forever for results
        # that died with it.  The operation therefore watches the transport's
        # failure signal and restarts itself against a fresh snapshot.  The
        # listener is registered after the (synchronous) kick-off so a send
        # that raises — e.g. the requester itself is down — leaks nothing.
        self._begin()
        self.client.node.add_failure_listener(self._on_peer_failure)

    def _begin(self) -> None:
        attempt = self._attempt
        self.client.resolve_epoch(
            self.relation, self.epoch, self.snapshot,
            on_resolved=self._guarded(attempt, self._with_epoch),
            on_error=self._guarded(attempt, self._fail),
        )

    def _guarded(self, attempt: int, callback):
        """Wrap ``callback`` so it fires only for the current attempt."""

        def guarded(*args) -> None:
            if self._finished or attempt != self._attempt:
                return
            callback(*args)

        return guarded

    def _on_peer_failure(self, failed_address: str) -> None:
        """A node failed while this retrieval was in flight: restart it.

        By the time the failure signal fires, the membership view already
        removed the failed node (it registered its listener first), so the
        fresh snapshot routes every page to live owners, and the data-node
        fallback search covers tuples whose owner died.  The restart takes a
        new request id — results from the aborted attempt find no matching
        operation and are dropped, so the final tuple set carries no
        duplicates.
        """
        if self._finished:
            return
        # A node outside this attempt's snapshot cannot be serving any part
        # of it (every request and fallback search targets snapshot members),
        # so its failure must not burn the bounded restart budget.
        if not any(
            physical_address(entry) == failed_address
            for entry in self.snapshot.nodes
        ):
            return
        if not self._restart_attempt():
            self._fail(TupleNotFoundError(
                f"retrieval of {self.relation!r}@{self.epoch} restarted "
                f"{self.MAX_RESTARTS} times without completing"))

    def _restart_attempt(self) -> bool:
        """Reset per-attempt state and re-run against a fresh snapshot.

        Returns False (without restarting) once the restart budget is spent.
        """
        self._restarts += 1
        if self._restarts > self.MAX_RESTARTS:
            return False
        self._attempt += 1
        self.snapshot = self.client.membership.snapshot()
        self.resolved_epoch = None
        self._expected_pages = 0
        self._manifests.clear()
        self._results_per_page.clear()
        self._tuples.clear()
        self._missing.clear()
        self._page_tuples.clear()
        self._cached_pages.clear()
        self._unavailable_pages.clear()
        self._pages_from_cache = 0
        self.client._rekey_retrieval(self)
        self._begin()
        return True

    def _with_epoch(self, resolved_epoch: int) -> None:
        attempt = self._attempt
        self.resolved_epoch = resolved_epoch
        self.client.fetch_coordinator(
            self.relation, resolved_epoch, self.snapshot,
            on_record=self._guarded(attempt, self._with_record),
            on_error=self._guarded(attempt, self._fail),
        )

    def _apply_pushdown(self, batch) -> list[VersionedTuple]:
        """Filter/project a locally cached (encoded) full tuple batch.

        Applies the same predicate and projection the data nodes would have
        applied remotely, so a cache-served page produces byte-identical
        result tuples to a remotely scanned one — with zero wire traffic.
        Cache entries are :class:`~repro.common.serialization.EncodedScanBatch`
        objects: the key predicate runs over the (unencoded) tuple ids, the
        pushed predicate is evaluated directly over the encoded columns, and
        only surviving positions are decoded.  A batch the predicate provably
        rules out is skipped without decoding a single value.
        """
        if isinstance(batch, EncodedScanBatch):
            return self._apply_pushdown_encoded(batch)
        # Legacy path for plain tuple sequences (driver/test callers).
        pushdown = _pushdown()
        key_filter = pushdown.predicate_callable(self.key_predicate)
        row_filter = pushdown.predicate_callable(self.predicate)
        tuples = list(batch)
        if key_filter is not None:
            tuples = [t for t in tuples if key_filter(t.tuple_id.key_values)]
        if row_filter is not None:
            tuples = [t for t in tuples if row_filter(t.values)]
        if self.projection is not None:
            tuples = [
                VersionedTuple(t.relation, t.tuple_id, self.projection.apply(t.values))
                for t in tuples
            ]
        return tuples

    def _apply_pushdown_encoded(self, batch: EncodedScanBatch) -> list[VersionedTuple]:
        pushdown = _pushdown()
        key_filter = pushdown.predicate_callable(self.key_predicate)
        candidates: list[int] | None = None
        if key_filter is not None:
            candidates = [
                i for i, tid in enumerate(batch.tuple_ids)
                if key_filter(tid.key_values)
            ]
        residual_filter = None
        if isinstance(self.predicate, pushdown.ScanPredicate):
            positions, residual = pushdown.encoded_match_positions(
                self.predicate, batch.batch
            )
            if positions is not None:
                if candidates is None:
                    candidates = positions
                else:
                    position_set = set(positions)
                    candidates = [i for i in candidates if i in position_set]
            residual_filter = pushdown.conjunction_callable(
                residual, self.predicate.attributes
            )
        elif self.predicate is not None:
            # Opaque callable (legacy API): nothing is decidable on codes.
            residual_filter = pushdown.predicate_callable(self.predicate)
        if candidates is not None and not candidates:
            # Proved empty from tuple ids / encoded metadata alone.
            ENCODING_STATS.batches_skipped += 1
            return []
        if self.projection is not None and residual_filter is None:
            # Lazy column decode: only the projected columns of the surviving
            # positions are ever materialised.
            positions = (
                candidates if candidates is not None
                else list(range(len(batch.tuple_ids)))
            )
            columns = [
                batch.batch.columns[i].decode_positions(positions)
                for i in self.projection.positions()
            ]
            rows = list(zip(*columns)) if columns else [() for _ in positions]
            return [
                VersionedTuple(batch.relation, batch.tuple_ids[i], row)
                for i, row in zip(positions, rows)
            ]
        if candidates is None:
            tuples = batch.decode_tuples()
        else:
            tuples = batch.decode_tuples_at(candidates)
        if residual_filter is not None:
            tuples = [t for t in tuples if residual_filter(t.values)]
        if self.projection is not None:
            tuples = [
                VersionedTuple(t.relation, t.tuple_id, self.projection.apply(t.values))
                for t in tuples
            ]
        return tuples

    def _with_record(self, record: CoordinatorRecord) -> None:
        self._expected_pages = len(record.pages)
        if not record.pages:
            self._finish()
            return
        remote_refs = []
        for ref in record.pages:
            if self.client.cache is not None:
                batch = self.client.cache.get_scan(ref.page_id)
                if batch is not None:
                    # The whole page scan is warm: no index-node cast, no
                    # data-node requests, no tuples on the wire.  Unchanged
                    # pages shared with an older epoch hit here even when the
                    # relation has been republished since.  A pushed
                    # predicate/projection is applied to the cached full
                    # batch locally.
                    self._manifests[ref.page_id] = 0
                    self._tuples.extend(self._apply_pushdown(batch))
                    self._cached_pages.add(ref.page_id)
                    self._pages_from_cache += 1
                    continue
            remote_refs.append(ref)
        if not remote_refs:
            self._maybe_finish()
            return
        pushdown = _pushdown()
        descriptor_size = (
            pushdown.predicate_wire_size(self.key_predicate)
            + pushdown.predicate_wire_size(self.predicate)
            + (self.projection.estimated_size() if self.projection is not None else 0)
        )
        route = owner_router(self.client.node, self.snapshot, self.client.replication_factor)
        for ref in remote_refs:
            self.client.rpc.cast(
                route(ref.storage_key),
                "store.retrieve_page",
                {
                    "request_id": self.request_id,
                    "requester": self.client.node.address,
                    "relation": self.relation,
                    "page_ref": ref,
                    "key_predicate": self.key_predicate,
                    "predicate": self.predicate,
                    "projection": self.projection,
                    "snapshot": self.snapshot,
                    "replication_factor": self.client.replication_factor,
                },
                size=96 + descriptor_size,
            )

    # -- messages from index / data nodes -----------------------------------------

    def on_manifest(self, payload: Mapping[str, object]) -> None:
        page_id: PageId = payload["page_id"]
        self._manifests[page_id] = payload["data_requests"]
        if payload.get("missing"):
            self._unavailable_pages.add(page_id)
        self._maybe_finish()

    def on_result(self, payload: Mapping[str, object]) -> None:
        page_id: PageId = payload["page_id"]
        self._tuples.extend(payload["tuples"])
        self._missing.extend(payload.get("missing", ()))
        self._results_per_page[page_id] = self._results_per_page.get(page_id, 0) + 1
        if self._cacheable:
            self._page_tuples.setdefault(page_id, []).extend(payload["tuples"])
        self._maybe_finish()

    def _maybe_finish(self) -> None:
        if self._finished or len(self._manifests) < self._expected_pages:
            return
        for page_id, expected in self._manifests.items():
            if self._results_per_page.get(page_id, 0) < expected:
                return
        self._finish()

    def _finish(self) -> None:
        if self._unavailable_pages and not self._missing:
            # A page no reachable node could produce: its rows would be
            # silently absent from the result, which must never happen —
            # retry against a fresh snapshot (the holder may have restarted),
            # then give up loudly.
            if self._restart_attempt():
                return
            self._fail(TupleNotFoundError(
                f"{len(self._unavailable_pages)} index page(s) of "
                f"{self.relation!r}@{self.epoch} are unavailable on every replica"))
            return
        self._finished = True
        self.client.node.remove_failure_listener(self._on_peer_failure)
        self.client._finish_retrieval(self.request_id)
        if self._missing:
            self.on_error(TupleNotFoundError(
                f"{len(self._missing)} tuple(s) of {self.relation!r} could not be "
                f"found on any replica"))
            return
        if self._cacheable:
            # Every remotely scanned page completed with nothing missing, so
            # each per-page batch is the page's full answer (an empty batch
            # for pages whose range holds no tuples); page versions are
            # immutable, so these entries can never go stale.  Pages no
            # replica could produce are the one thing that must not be
            # cached — absence here is not knowledge of emptiness.
            for page_id in self._manifests:
                if page_id in self._cached_pages or page_id in self._unavailable_pages:
                    continue
                self.client.cache.put_scan(page_id, self._page_tuples.get(page_id, ()))
        self.on_complete(
            RetrieveResult(
                relation=self.relation,
                epoch=self.epoch,
                resolved_epoch=self.resolved_epoch or self.epoch,
                tuples=self._tuples,
                pages_scanned=self._expected_pages,
                missing=self._missing,
                pages_from_cache=self._pages_from_cache,
            )
        )

    def _fail(self, exc: Exception) -> None:
        self._finished = True
        self.client.node.remove_failure_listener(self._on_peer_failure)
        self.client._finish_retrieval(self.request_id)
        self.on_error(exc)


def register_retrieve_handlers(service: StorageService, replication_factor: int = 3) -> None:
    """Register the index-node and data-node sides of the retrieve protocol.

    These handlers complement :class:`StorageService`'s request/response
    methods with the *push* messages of Algorithm 1: an index node receiving a
    ``store.retrieve_page`` cast filters the page's tuple IDs and forwards
    per-data-node ``store.retrieve_tuples`` casts; a data node receiving one
    looks the tuples up (fetching any that are missing from replicas first)
    and sends the results straight to the requester.
    """
    rpc = service.rpc
    node = service.node

    def on_retrieve_tuples(_src: str, payload: Mapping[str, object], _respond) -> None:
        snapshot: RoutingSnapshot = payload["snapshot"]
        relation = payload["relation"]
        requested: list[TupleId] = payload["tuple_ids"]
        requester = payload["requester"]
        request_id = payload["request_id"]
        page_id = payload["page_id"]
        replication_factor = payload["replication_factor"]
        row_filter = _pushdown().predicate_callable(payload.get("predicate"))
        projection = payload.get("projection")
        found, missing = service.lookup_tuples(relation, requested)

        def send_result(extra: list[VersionedTuple], still_missing: list[TupleId]) -> None:
            # Storage-side pushdown: the pushed predicate filters and the
            # pushed projection narrows each tuple *here*, before the result
            # is batched for the requester — only surviving, narrowed rows
            # ever cross the simulated network.
            tuples = found + extra
            if row_filter is not None:
                tuples = [t for t in tuples if row_filter(t.values)]
            if projection is not None:
                tuples = [
                    VersionedTuple(t.relation, t.tuple_id, projection.apply(t.values))
                    for t in tuples
                ]
            # Data nodes ship encoded columns: the charged size is the
            # compressed encoded batch (ids + columnar payload), not the sum
            # of raw per-tuple estimates.
            size = (
                EncodedScanBatch.from_tuples(tuples).stored_size()
                + 24 * len(still_missing)
            )
            rpc.cast(requester, "store.retrieve_result",
                     {"request_id": request_id, "page_id": page_id,
                      "tuples": tuples, "missing": still_missing}, size)

        if not missing:
            send_result([], [])
            return

        # Proactively fetch missing versions from replicas before answering,
        # so the requester never sees stale or incomplete data (Section IV).
        # Each missing tuple is chased across the replica/search list until a
        # copy is found; a replica replying without the tuple (it may simply
        # not hold that range yet) moves the search to the next candidate.
        recovered: list[VersionedTuple] = []
        still_missing: list[TupleId] = []
        pending = _CompletionCounter(len(missing), lambda: send_result(recovered, still_missing))
        for tid in missing:

            def accept(_src, reply, tid=tid) -> bool:
                fetched_tuples = [
                    t for t in reply.get("tuples", []) if t.tuple_id == tid
                ]
                if not fetched_tuples:
                    return False
                service.store_tuple(fetched_tuples[0])
                recovered.append(fetched_tuples[0])
                pending.done()
                return True

            def exhausted(tid=tid) -> None:
                still_missing.append(tid)
                pending.done()

            chase(
                node,
                search_targets(snapshot, tid.hash_key, replication_factor,
                               exclude=(node.address,)),
                "store.get_tuples", {"relation": relation, "tuple_ids": [tid]}, 48,
                accept, on_exhausted=exhausted,
            )

    def on_retrieve_page(_src: str, payload: Mapping[str, object], _respond) -> None:
        snapshot: RoutingSnapshot = payload["snapshot"]
        ref: PageRef = payload["page_ref"]
        requester: str = payload["requester"]
        request_id = payload["request_id"]
        relation = payload["relation"]
        pushdown = _pushdown()
        predicate = pushdown.predicate_callable(payload.get("key_predicate"))
        row_predicate = payload.get("predicate")
        projection = payload.get("projection")
        replication_factor = payload["replication_factor"]
        forwarded_size = (
            pushdown.predicate_wire_size(row_predicate)
            + (projection.estimated_size() if projection is not None else 0)
        )

        def scan_page(page: IndexPage) -> None:
            """Filter the page and forward per-data-node tuple requests."""
            node.charge_cpu(INDEX_SCAN_COST_PER_ID * len(page.tuple_ids))
            if predicate is None:
                matching = list(page.tuple_ids)
            else:
                matching = [tid for tid in page.tuple_ids if predicate(tid.key_values)]
            route = owner_router(node, snapshot, replication_factor)
            by_data_node: dict[str, list[TupleId]] = {}
            for tid in matching:
                by_data_node.setdefault(route(tid.hash_key), []).append(tid)
            rpc.cast(requester, "store.retrieve_manifest",
                     {"request_id": request_id, "page_id": ref.page_id,
                      "data_requests": len(by_data_node)}, 48)
            for data_node, tids in by_data_node.items():
                rpc.cast(data_node, "store.retrieve_tuples",
                         {"request_id": request_id, "requester": requester,
                          "relation": relation, "tuple_ids": tids,
                          "page_id": ref.page_id, "snapshot": snapshot,
                          "predicate": row_predicate, "projection": projection,
                          "replication_factor": replication_factor},
                         size=24 * len(tids) + 64 + forwarded_size)

        def page_unavailable() -> None:
            # ``missing`` distinguishes "no replica holds this page" from a
            # successfully scanned page that simply matched nothing — only
            # the latter may enter the requester's scan cache.
            rpc.cast(requester, "store.retrieve_manifest",
                     {"request_id": request_id, "page_id": ref.page_id,
                      "data_requests": 0, "missing": True}, 48)

        page = service.local_or_cached_page(ref.page_id)
        if page is not None:
            scan_page(page)
            return
        # The page is not here (e.g. the ring moved since it was written):
        # fetch it from a replica, keep a local copy, then continue.  A
        # ``missing`` reply fails over to the next candidate exactly like a
        # crashed one — after membership churn the page may sit on any node
        # of the snapshot, and the first candidate answering "not here" says
        # nothing about the others.
        def fetched(reply: Mapping[str, object]) -> None:
            service.store_page(reply["page"])
            scan_page(reply["page"])

        chase(
            node,
            search_targets(snapshot, ref.storage_key, replication_factor,
                           exclude=(node.address,)),
            "store.get_page", {"page_id": ref.page_id}, 32,
            accept=lambda _src, reply: (
                False if reply.get("missing") else (fetched(reply) or True)
            ),
            on_exhausted=page_unavailable,
        )

    rpc.register("store.retrieve_page", on_retrieve_page)
    rpc.register("store.retrieve_tuples", on_retrieve_tuples)


class _CompletionCounter:
    """Fire a callback after N completions (helper for fan-out fetches)."""

    def __init__(self, outstanding: int, on_complete: Callable[[], None]) -> None:
        self._outstanding = outstanding
        self._on_complete = on_complete
        if outstanding == 0:
            on_complete()

    def done(self) -> None:
        self._outstanding -= 1
        if self._outstanding == 0:
            self._on_complete()

