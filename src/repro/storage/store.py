"""The EventStore: the domain-specific storage facade.

This is the storage component of Figure 1 ("Optimized Databases") as a pure
Python substrate.  It combines the hypertable (time+space partitioning),
per-partition in-memory indexes, entity interning, and statistics, and
exposes the two operations the engine needs:

* :meth:`EventStore.select` — the cheapest index-backed candidate fetch
  for an event pattern's data query (partition pruning + best access
  path selection) followed by the residual predicate;
  :meth:`EventStore.select_batches` hands the same survivors over as
  column batches;
* :meth:`EventStore.estimate` — cardinality estimation feeding the
  scheduler's pruning-power ordering.
"""

from __future__ import annotations

from typing import (TYPE_CHECKING, Callable, Iterable, NamedTuple,
                    Sequence)

from repro.model.entities import Entity, ProcessEntity
from repro.model.events import Event, validate_operation
from repro.model.timeutil import SECONDS_PER_DAY, Window
from repro.storage.dedup import EntityInterner
from repro.storage.indexes import clip_to_window, like_to_regex
from repro.storage.partition import Hypertable, Partition
from repro.storage.stats import PatternProfile, estimate_partition

from repro.storage.backend import (resolve_spec as _resolved,
                                   select_batches_via_select,
                                   select_via_candidates)

if TYPE_CHECKING:
    from repro.engine.filters import CompiledPredicate
    from repro.storage.backend import (AccessPathInfo, IdentityBindings,
                                       ScanOrder, ScanSpec)


class EventStore:
    """In-memory, partitioned, indexed store for system monitoring data.

    This is the ``row`` implementation of the
    :class:`~repro.storage.backend.StorageBackend` protocol.
    """

    backend_name = "row"

    def __init__(self, bucket_seconds: float = SECONDS_PER_DAY) -> None:
        self._table = Hypertable(bucket_seconds)
        self._interner = EntityInterner()
        self._max_id = 0

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event:
        """Build, intern, store, and return one event (agent write path)."""
        subject = self._interner.intern(subject)
        obj = self._interner.intern(obj)
        operation = validate_operation(obj.entity_type, operation)
        # _max_id also tracks ingested ids, so recorded events never reuse
        # an archived event's id (all backends allocate this way).
        event = Event(id=self._max_id + 1, ts=ts, agentid=agentid,
                      operation=operation, subject=subject, object=obj,
                      amount=amount, failcode=failcode)
        self._table.add(event)
        self._max_id = event.id
        return event

    def ingest(self, events: Iterable[Event]) -> int:
        """Store pre-built events, interning their entities. Returns count."""
        count = 0
        for event in events:
            subject = self._interner.intern(event.subject)
            obj = self._interner.intern(event.object)
            if subject is not event.subject or obj is not event.object:
                event = Event(id=event.id, ts=event.ts, agentid=event.agentid,
                              operation=event.operation, subject=subject,
                              object=obj, amount=event.amount,
                              failcode=event.failcode)
            self._table.add(event)
            if event.id > self._max_id:
                self._max_id = event.id
            count += 1
        return count

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def partitions(self, window: Window | None,
                   agentids: set[int] | None) -> list[Partition]:
        return self._table.prune(window, agentids)

    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]:
        """All events matching the spatial/temporal bounds (full scan)."""
        events: list[Event] = []
        for partition in self._table.prune(window, agentids):
            if window is None:
                events.extend(partition.events())
            else:
                events.extend(partition.events_in(window))
        events.sort(key=lambda e: (e.ts, e.id))
        return events

    def _candidates(self, profile: PatternProfile,
                    spec: "ScanSpec") -> list[Event]:
        """Cheapest index-backed superset of events matching the profile.

        The returned list still requires residual predicate evaluation
        (named attribute comparisons the indexes do not cover), but it is
        already restricted by the best single index per partition and
        clipped to the time window.  The spec's identity bindings add the
        per-identity posting lists as candidate access paths — after
        propagation those sets are tiny, so they usually win the costing
        outright.  Its temporal bounds tighten the window (partition zone
        pruning) and add the binary-searched time-index range scan as its
        own costed access path, so a narrowed sliver of a bucket never
        pays for a broad posting list.
        """
        window = spec.clamped()
        out: list[Event] = []
        for partition in self._table.prune(window, spec.agentids):
            paths = _access_paths(partition, profile, spec.bindings, window)
            fetched = _cheapest(paths)()
            if window is not None:
                fetched = clip_to_window(fetched, window.start, window.end)
            out.extend(fetched)
        return out

    def select(self, profile: PatternProfile,
               predicate: "CompiledPredicate",
               spec: "ScanSpec | None" = None) -> tuple[list[Event], int]:
        """Fetch candidates and apply the fused residual predicate.

        A pushed :class:`~repro.storage.backend.ScanOrder` limit takes
        the costed ordered path below; everything else goes through the
        shared candidates-plus-residual implementation.  Binding/bounds
        hints keep the shared path — their post-filters interact with
        early termination, and the scheduler never pushes an order
        alongside them.
        """
        spec = _resolved(spec)
        order, limit = spec.order, spec.effective_limit
        if (order is not None and limit is not None
                and spec.bindings is None and spec.bounds is None):
            return self._select_ordered(profile, predicate, spec, order,
                                        limit)
        return select_via_candidates(self._candidates, profile, predicate,
                                     spec)

    #: :meth:`select`'s survivors as per-agent column batches.
    select_batches = select_batches_via_select

    def _select_ordered(self, profile: PatternProfile,
                        predicate: "CompiledPredicate", spec: "ScanSpec",
                        order: "ScanOrder", limit: int,
                        ) -> tuple[list[Event], int]:
        """Costed per-partition top-k, then a global bounded merge.

        Each partition chooses between its two physical orders: when the
        cheapest posting path is already small (within a few multiples of
        ``limit``), fetching those candidates and heap-selecting beats
        walking rows; otherwise the sorted time index is walked from the
        cheap end chunk-at-a-time, stopping as soon as the partition's
        own first/last ``limit`` survivors are decided.  The union of
        per-partition winners provably contains the global winners, so a
        final bounded merge finishes the job.  ``fetched`` counts rows
        actually examined — the early-termination saving is visible in
        execution reports.
        """
        from repro.storage.backend import take_ordered
        if spec.unsatisfiable:
            return [], 0
        window = spec.clamped()
        test = predicate.event_predicate
        winners: list[Event] = []
        fetched = 0
        for partition in self._table.prune(window, spec.agentids):
            paths = _access_paths(partition, profile, None, window)
            cheapest = min(path.cost for path in paths)
            if cheapest <= limit * _ORDERED_COST_FACTOR:
                candidates = _cheapest(paths)()
                if window is not None:
                    candidates = clip_to_window(candidates, window.start,
                                                window.end)
                fetched += len(candidates)
                winners.extend(take_ordered(
                    (event for event in candidates if test(event)),
                    order, limit))
                continue
            events, lo, hi = partition.time_index.ordered_span(window)
            if order.descending:
                part, walked = _last_survivors(events, lo, hi, test, limit)
            else:
                part, walked = _first_survivors(events, lo, hi, test, limit)
            fetched += walked
            winners.extend(part)
        return take_ordered(winners, order, limit), fetched

    def estimate(self, profile: PatternProfile,
                 spec: "ScanSpec | None" = None) -> int:
        """Estimated match cardinality (the pruning-power signal)."""
        spec = _resolved(spec)
        if spec.unsatisfiable:
            return 0
        # The same window tightening the candidate fetch applies, so the
        # estimate never diverges from what the scan would fetch.
        window = spec.clamped()
        return sum(
            estimate_partition(partition, profile, window, spec.bindings)
            for partition in self._table.prune(window, spec.agentids))

    def access_path(self, profile: PatternProfile,
                    spec: "ScanSpec | None" = None) -> "AccessPathInfo":
        """The costed physical path ``select`` would take (no fetch)."""
        from repro.storage.backend import AccessPathInfo
        spec = _resolved(spec)
        if spec.unsatisfiable:
            return AccessPathInfo("unsatisfiable", 0)
        window = spec.clamped()
        chosen: dict[str, int] = {}
        considered: dict[str, int] = {}
        for partition in self._table.prune(window, spec.agentids):
            paths = _access_paths(partition, profile, spec.bindings, window)
            for path in paths:
                considered[path.name] = (considered.get(path.name, 0)
                                         + path.cost)
            best = min(paths, key=lambda path: path.cost)
            chosen[best.name] = chosen.get(best.name, 0) + best.cost
        if not chosen:
            return AccessPathInfo("no-partitions", 0)
        dominant = max(chosen, key=lambda name: (chosen[name], name))
        name = (dominant if len(chosen) == 1
                else f"{dominant}+{len(chosen) - 1} other")
        return AccessPathInfo(
            name=name, rows=sum(chosen.values()),
            considered=tuple(sorted(considered.items())))

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def span(self) -> Window | None:
        return self._table.span

    @property
    def agentids(self) -> set[int]:
        return self._table.agentids

    @property
    def entity_count(self) -> int:
        return len(self._interner)

    @property
    def dedup_ratio(self) -> float:
        return self._interner.dedup_ratio

    @property
    def partition_count(self) -> int:
        return self._table.partition_count

    @property
    def bucket_seconds(self) -> float:
        return self._table.bucket_seconds

    def __len__(self) -> int:
        return len(self._table)


#: Cost multiple of the pushed limit under which a partition's cheapest
#: posting path wins over the ordered time-index walk: a candidate set
#: within a few multiples of ``k`` is cheaper to heap-select than rows
#: are to walk, while an unselective path (cost ≈ partition size) loses
#: to a walk that stops at the k-th survivor.
_ORDERED_COST_FACTOR = 4


def _first_survivors(events: list[Event], lo: int, hi: int,
                     test: Callable[[Event], bool], k: int,
                     ) -> tuple[list[Event], int]:
    """First ``k`` survivors of a ``(ts, id)``-sorted span, walk count."""
    from repro.storage.backend import ORDERED_CHUNK
    out: list[Event] = []
    pos = lo
    while pos < hi and len(out) < k:
        nxt = min(hi, pos + ORDERED_CHUNK)
        out.extend(event for event in events[pos:nxt] if test(event))
        pos = nxt
    return out[:k], pos - lo


def _last_survivors(events: list[Event], lo: int, hi: int,
                    test: Callable[[Event], bool], k: int,
                    ) -> tuple[list[Event], int]:
    """Best ``k`` survivors under ``(-ts, id)``, walking from the tail.

    The walk may only stop once no earlier row can still win: an earlier
    row tied with the provisional k-th timestamp has a smaller id and
    would displace it, so the stop test is *strictly* earlier-than.
    """
    import heapq
    from repro.storage.backend import ORDERED_CHUNK
    key = lambda event: (-event.ts, event.id)  # noqa: E731
    collected: list[Event] = []
    pos = hi
    while pos > lo:
        nxt = max(lo, pos - ORDERED_CHUNK)
        chunk = [event for event in events[nxt:pos] if test(event)]
        if chunk:
            collected = chunk + collected
        pos = nxt
        if len(collected) >= k and pos > lo:
            best = heapq.nsmallest(k, collected, key=key)
            if events[pos - 1].ts < best[-1].ts:
                return best, hi - pos
    if len(collected) > k:
        return heapq.nsmallest(k, collected, key=key), hi - pos
    collected.sort(key=key)
    return collected, hi - pos


class AccessPath(NamedTuple):
    """One costed physical way to fetch a partition's candidates."""

    name: str
    cost: int                                # exactly known result size
    fetch: Callable[[], Sequence[Event]]


def _cheapest(paths: Sequence[AccessPath]) -> Callable[[], Sequence[Event]]:
    return min(paths, key=lambda path: path.cost).fetch


def _access_paths(partition: Partition, profile: PatternProfile,
                  bindings: "IdentityBindings | None" = None,
                  window: Window | None = None) -> list[AccessPath]:
    """Enumerate every candidate access path for this partition.

    Candidate paths are costed by their (exactly known) result sizes; the
    caller picks the smallest.  Falls back to the event-type posting
    list, then to a full partition read.  A time window adds the
    binary-searched time-index range scan as a path of its own, so a
    narrowed temporal bound beats every posting list once it covers fewer
    events; propagated identity bindings add the posting-list
    intersection over their (usually tiny) identity sets.
    """
    paths: list[AccessPath] = []
    if window is not None:
        count = partition.time_index.count_range(window.start, window.end)
        paths.append(AccessPath("time-range", count,
                                lambda: partition.events_in(window)))
    if bindings is not None:
        if bindings.subjects is not None:
            subject_ids = bindings.subjects
            paths.append(AccessPath(
                "id-postings(subject)",
                partition.by_subject_id.count_many(subject_ids),
                lambda: partition.by_subject_id.lookup_many(subject_ids)))
        if bindings.objects is not None:
            object_ids = bindings.objects
            paths.append(AccessPath(
                "id-postings(object)",
                partition.by_object_id.count_many(object_ids),
                lambda: partition.by_object_id.lookup_many(object_ids)))
    if profile.subject_exact is not None:
        count = partition.by_subject_name.count(profile.subject_exact)
        paths.append(AccessPath(
            "posting(subject)", count,
            lambda: partition.by_subject_name.lookup(profile.subject_exact)))
    if profile.object_exact is not None and profile.event_type is not None:
        key = (profile.event_type, profile.object_exact)
        paths.append(AccessPath(
            "posting(object)", partition.by_object_value.count(key),
            lambda: partition.by_object_value.lookup(key)))
    if profile.event_type is not None and profile.operations:
        ops = sorted(profile.operations)
        count = sum(partition.by_type_operation.count(
            (profile.event_type, op)) for op in ops)

        def _by_ops() -> list[Event]:
            merged: list[Event] = []
            for op in ops:
                merged.extend(partition.by_type_operation.lookup(
                    (profile.event_type, op)))
            return merged

        paths.append(AccessPath("posting(type+op)", count, _by_ops))
    if profile.subject_like is not None:
        count = partition.by_subject_name.count_like(profile.subject_like)
        paths.append(AccessPath(
            "posting(subject-like)", count,
            lambda: partition.by_subject_name.lookup_like(
                profile.subject_like)))
    if profile.object_like is not None and profile.event_type is not None:
        # Resolve the matching keys once: the key scan is cheap (distinct
        # attribute values, not events) and gives the exact path cost.
        regex = like_to_regex(profile.object_like)
        matched_keys = [
            key for key in partition.by_object_value.keys()
            if key[0] == profile.event_type and isinstance(key[1], str)
            and regex.match(key[1])]
        count = sum(partition.by_object_value.count(key)
                    for key in matched_keys)

        def _by_object_like() -> list[Event]:
            matched: list[Event] = []
            for key in matched_keys:
                matched.extend(partition.by_object_value.lookup(key))
            return matched

        paths.append(AccessPath("posting(object-like)", count,
                                _by_object_like))
    if profile.event_type is not None:
        paths.append(AccessPath(
            "posting(type)", partition.by_type.count(profile.event_type),
            lambda: partition.by_type.lookup(profile.event_type)))
    if not paths:
        paths.append(AccessPath("full-partition", len(partition),
                                partition.events))
    return paths
