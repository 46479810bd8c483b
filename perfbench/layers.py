"""Outside-in per-layer host-time trace.

The benchmark never edits the system to time it.  Instead :class:`LayerTrace`
wraps each layer's public entry points from outside, in the benchmark's own
process, and keeps per boundary a call count and a *self time*: the wall
time spent inside the boundary minus the time spent inside boundaries it
called.  Self times of all boundaries therefore add up to the traced wall
time they cover, without double counting.

Two kinds of entry point are wrapped:

* named functions and methods (``LocalStore.get``, ``compile_query``, ...),
  listed in :data:`BOUNDARIES`;
* the callables the simulator later invokes — message handlers, RPC reply
  callbacks and timer actions.  They are wrapped where they enter the
  system (``SimNode.register_handler``, ``RpcEndpoint.register``,
  ``RpcEndpoint.call`` and ``Network.schedule``) and charged to the
  boundary named after the module that defines them, so storage and query
  handler time is not charged to ``net.dispatch``.  Callables defined in
  ``repro.net`` are left unwrapped: their time is the simulator's own
  dispatch work and stays in ``net.dispatch`` self time.

The trace must be installed before any cluster is built, because handlers are
wrapped as they are registered.  Wrappers change no argument and no result,
so a traced run simulates exactly what an untraced one does.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import defaultdict
from typing import Callable, Iterable

#: Boundaries wrapped by name: ``(boundary, module, owner, attributes)``.
#: ``owner`` is a class name in ``module``, or None for module functions.
BOUNDARIES: tuple[tuple[str, str, str | None, tuple[str, ...]], ...] = (
    ("runtime.submit", "repro.runtime.session", "Session",
     ("submit_publish", "submit_retrieve", "submit_query")),
    ("optimizer.compile", "repro.optimizer.planner", None, ("compile_query",)),
    ("net.dispatch", "repro.net.simnet", "Network", ("run",)),
    ("net.send", "repro.net.simnet", "Network", ("send",)),
    ("net.rpc", "repro.net.transport", "RpcEndpoint", ("call",)),
    ("overlay.snapshot", "repro.overlay.membership", "MembershipView", ("snapshot",)),
    ("overlay.route", "repro.overlay.routing", "RoutingSnapshot",
     ("owner_of", "replicas_for_key")),
    ("overlay.route", "repro.overlay.replication", None, ("replica_set",)),
    ("overlay.gossip", "repro.overlay.gossip", "EpochGossip", ("announce",)),
    ("storage.client", "repro.storage.client", "StorageClient", ("publish", "retrieve")),
    ("storage.service", "repro.storage.service", "StorageService",
     ("local_coordinator", "local_catalog", "local_page", "local_or_cached_page",
      "local_pages_for_relation", "lookup_tuples", "store_tuple", "store_page",
      "store_coordinator", "local_tuples_in_range", "all_local_tuples")),
    ("storage.localstore.get", "repro.storage.localstore", "LocalStore", ("get",)),
    ("storage.localstore.put", "repro.storage.localstore", "LocalStore", ("put",)),
    ("common.codec.encode", "repro.common.serialization", "TupleBatch", ("build",)),
    ("common.codec.encode", "repro.common.serialization", "EncodedTupleBatch", ("build",)),
    ("common.codec.encode", "repro.common.serialization", "EncodedScanBatch", ("from_tuples",)),
    ("common.codec.encode", "repro.common.serialization", None, ("encode_values",)),
    ("common.codec.decode", "repro.common.serialization", "TupleBatch", ("unmarshal",)),
    ("common.codec.decode", "repro.common.serialization", "EncodedTupleBatch",
     ("unmarshal", "decode_rows", "decode_rows_at")),
    ("common.codec.decode", "repro.common.serialization", "EncodedScanBatch",
     ("decode_tuples", "decode_tuples_at")),
    ("common.codec.decode", "repro.common.serialization", None, ("decode_values",)),
    ("common.hash", "repro.common.hashing", None, ("sha1_key",)),
    ("common.hash", "repro.common.types", None, ("partition_hash",)),
    ("query.service", "repro.query.service", "QueryService", ("execute",)),
    ("cache.lookup", "repro.cache.node", "NodeCache",
     ("get_coordinator", "get_page", "get_scan", "get_resolution")),
    ("cache.lookup", "repro.cache.result", "SemanticResultCache", ("lookup", "store_result")),
    ("cdss.participant", "repro.cdss.participant", "Participant", ("publish", "import_updates")),
    ("cdss.edit", "repro.cdss.participant", "Participant", ("insert", "modify", "delete")),
    ("cdss.exchange", "repro.cdss.mappings", "UpdateExchange", ("compute_deltas",)),
    ("cdss.reconcile", "repro.cdss.reconciliation", "Reconciler", ("reconcile",)),
)

#: Boundaries whose methods return an iterator: time is charged per step,
#: while the caller iterates, not only for creating the iterator.
ITERATOR_BOUNDARIES = (
    ("storage.localstore.scan", "repro.storage.localstore", "LocalStore",
     ("range_scan", "items", "filter_items")),
)

#: Every operator's ``accept``/``end_of_stream`` is the ``query.operator``
#: boundary; ``accept`` also counts the rows it receives.
OPERATOR_MODULE = "repro.query.operators"
OPERATOR_BASE = "RuntimeOperator"

#: Boundaries a handler, reply callback or timer action may be charged to,
#: by the module that defines it.  A callable from any other module outside
#: ``repro.net`` is charged to ``other.handler``.
HANDLER_BOUNDARIES = {
    "repro.storage.client": "storage.client",
    "repro.storage.service": "storage.service",
    "repro.query.service": "query.service",
    "repro.overlay.gossip": "overlay.gossip",
    "repro.overlay.membership": "overlay.snapshot",
    "repro.runtime.scheduler": "runtime.handler",
    "repro.runtime.workload": "runtime.handler",
    "repro.runtime.session": "runtime.handler",
}
OTHER_HANDLER = "other.handler"

#: Every boundary name the trace can report, in report order.
BOUNDARY_NAMES: tuple[str, ...] = tuple(dict.fromkeys(
    [name for name, *_ in BOUNDARIES]
    + [name for name, *_ in ITERATOR_BOUNDARIES]
    + ["query.operator", "runtime.handler", OTHER_HANDLER]
))


def import_system() -> None:
    """Import every ``repro`` module, so patching sees every binding."""
    package = importlib.import_module("repro")
    for info in pkgutil.walk_packages(package.__path__, "repro."):
        importlib.import_module(info.name)


class LayerTrace:
    """Call counts and self times per boundary, plus handler attribution."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        #: Rows received by operator ``accept`` calls.
        self.operator_rows_in = 0
        #: Rows returned to initiators by completed queries and retrievals.
        self.rows_returned = 0
        #: Index pages of all query scans, and how many pruning removed.
        self.scan_pages_total = 0
        self.scan_pages_pruned = 0
        #: Wall time covered by outermost spans (the rest is unattributed).
        self.covered_s = 0.0
        #: One child-time accumulator per open span, innermost last.
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- accounting ----------------------------------------------------------------

    def reset(self) -> None:
        """Zero every count; call with no span open (at a phase boundary)."""
        if self._stack:
            raise RuntimeError("cannot reset the trace inside an open span")
        self.calls.clear()
        self.self_s.clear()
        self.operator_rows_in = self.rows_returned = 0
        self.scan_pages_total = self.scan_pages_pruned = 0
        self.covered_s = 0.0

    def _close(self, name: str, frame: list[float], elapsed: float, count: int = 1) -> None:
        self._stack.pop()
        self.calls[name] += count
        self.self_s[name] += elapsed - frame[0]
        if self._stack:
            self._stack[-1][0] += elapsed
        else:
            self.covered_s += elapsed

    def span(self, name: str, fn: Callable) -> Callable:
        """``fn`` wrapped as one span of boundary ``name`` per call."""
        stack, clock, close = self._stack, time.perf_counter, self._close

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                close(name, frame, clock() - start)

        return wrapper

    def iterator_span(self, name: str, fn: Callable) -> Callable:
        """Like :meth:`span`, but each step of the returned iterator is
        charged to ``name`` as well; the call counts once."""
        stack, clock, close = self._stack, time.perf_counter, self._close

        def steps(iterator):
            while True:
                frame = [0.0]
                stack.append(frame)
                start = clock()
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    close(name, frame, clock() - start, count=0)
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                iterator = iter(fn(*args, **kwargs))
            finally:
                close(name, frame, clock() - start)
            return steps(iterator)

        return wrapper

    def entry(self, fn):
        """``fn`` wrapped as a span of the boundary its module belongs to.

        Used for callables the simulator invokes later.  ``None`` and
        callables of the simulator itself (``repro.net``) or of the benchmark
        come back unchanged.
        """
        module = getattr(fn, "__module__", None) or ""
        if not module.startswith("repro.") or module.startswith("repro.net."):
            return fn
        name = HANDLER_BOUNDARIES.get(module, OTHER_HANDLER)
        return self.span(name, fn)

    # -- installation --------------------------------------------------------------

    def _set(self, owner: object, attribute: str, value: object) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _patch_method(self, cls: type, attribute: str, wrap: Callable) -> None:
        original = cls.__dict__[attribute]
        if isinstance(original, classmethod):
            self._set(cls, attribute, classmethod(wrap(original.__func__)))
        elif isinstance(original, staticmethod):
            self._set(cls, attribute, staticmethod(wrap(original.__func__)))
        else:
            self._set(cls, attribute, wrap(original))

    def _patch_function(self, module_name: str, attribute: str, wrapped: Callable) -> None:
        """Rebind a module function in its module and in every ``repro``
        module that imported it by name (``from x import f``)."""
        original = getattr(sys.modules[module_name], attribute)
        for name, module in list(sys.modules.items()):
            if name != "repro" and not name.startswith("repro."):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._set(module, key, wrapped)

    def _patch(self, table: Iterable, make: Callable[[str, Callable], Callable]) -> None:
        for name, module_name, owner, attributes in table:
            module = sys.modules[module_name]
            for attribute in attributes:
                if owner is None:
                    original = getattr(module, attribute)
                    self._patch_function(module_name, attribute, make(name, original))
                else:
                    cls = getattr(module, owner)
                    self._patch_method(cls, attribute, lambda fn, name=name: make(name, fn))

    def install(self) -> "LayerTrace":
        """Wrap every boundary; returns ``self``."""
        import_system()
        self._patch(BOUNDARIES, self.span)
        self._patch(ITERATOR_BOUNDARIES, self.iterator_span)
        self._install_operators()
        self._install_entries()
        self._install_result_taps()
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def _install_operators(self) -> None:
        module = sys.modules[OPERATOR_MODULE]
        base = getattr(module, OPERATOR_BASE)
        trace = self

        def counting(fn):
            spanned = trace.span("query.operator", fn)

            @functools.wraps(fn)
            def accept(operator, rows, *args, **kwargs):
                trace.operator_rows_in += len(rows)
                return spanned(operator, rows, *args, **kwargs)

            return accept

        for cls in vars(module).values():
            if not (isinstance(cls, type) and issubclass(cls, base)):
                continue
            if cls.__module__ != OPERATOR_MODULE:
                continue
            if "accept" in cls.__dict__:
                self._patch_method(cls, "accept", counting)
            if "end_of_stream" in cls.__dict__:
                self._patch_method(cls, "end_of_stream",
                                   lambda fn: self.span("query.operator", fn))

    def _install_entries(self) -> None:
        from repro.net.simnet import Network, SimNode
        from repro.net.transport import RpcEndpoint

        entry = self.entry
        register_handler = SimNode.register_handler
        register = RpcEndpoint.register
        schedule = Network.schedule
        call = RpcEndpoint.call

        def wrapped_register_handler(node, msg_type, handler):
            return register_handler(node, msg_type, entry(handler))

        def wrapped_register(endpoint, method, handler):
            return register(endpoint, method, entry(handler))

        def wrapped_schedule(network, delay, action):
            return schedule(network, delay, entry(action))

        @functools.wraps(call)
        def wrapped_call(endpoint, dst, method, payload, size, on_reply,
                         on_failure=None, timeout=None):
            return call(endpoint, dst, method, payload, size, entry(on_reply),
                        entry(on_failure) if on_failure is not None else None, timeout)

        self._set(SimNode, "register_handler", wrapped_register_handler)
        self._set(RpcEndpoint, "register", wrapped_register)
        self._set(Network, "schedule", wrapped_schedule)
        # RpcEndpoint.call is already the net.rpc span; this outer wrapper
        # only attributes the callbacks it is given.
        self._set(RpcEndpoint, "call", wrapped_call)

    def _install_result_taps(self) -> None:
        """Count rows and scan pages of every completed query and retrieval."""
        from repro.query.service import QueryService
        from repro.storage.client import StorageClient

        trace = self

        def tap(method, count):
            @functools.wraps(method)
            def wrapper(*args, on_complete, **kwargs):
                def completed(result):
                    count(result)
                    return on_complete(result)

                return method(*args, on_complete=completed, **kwargs)

            return wrapper

        def count_query(result):
            trace.rows_returned += len(result.rows)
            trace.scan_pages_total += result.statistics.scan_pages_total
            trace.scan_pages_pruned += result.statistics.scan_pages_pruned

        def count_retrieve(result):
            trace.rows_returned += len(result.tuples)

        self._set(QueryService, "execute", tap(QueryService.execute, count_query))
        self._set(StorageClient, "retrieve", tap(StorageClient.retrieve, count_retrieve))

    # -- report --------------------------------------------------------------------

    def boundary_metrics(self) -> dict[str, float]:
        """``<boundary>.calls`` and ``<boundary>.self_s`` for every boundary."""
        metrics: dict[str, float] = {}
        for name in BOUNDARY_NAMES:
            metrics[f"{name}.calls"] = self.calls.get(name, 0)
            metrics[f"{name}.self_s"] = self.self_s.get(name, 0.0)
        return metrics
