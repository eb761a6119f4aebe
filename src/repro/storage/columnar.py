"""Columnar event store: struct-of-arrays partitions + batch predicate scans.

The second first-class implementation of the
:class:`~repro.storage.backend.StorageBackend` protocol.  Where the row
store answers data queries through per-partition posting indexes and then
filters surviving :class:`~repro.model.events.Event` objects one at a time,
the columnar store keeps each ``(agentid, time bucket)`` partition as
struct-of-arrays columns —

    ids | ts | op codes | event-type codes | subject codes | object codes
        | amounts | failcodes

— with entities, operations, and event types dictionary-encoded against
store-level vocabularies, plus one ascending row-index posting per
``(event type, operation)`` pair present.  A pattern's residual predicate
(the :class:`~repro.engine.filters.CompiledPredicate` atom conjunction) is
evaluated *column-at-a-time*:

1. atoms over dictionary-encoded columns are evaluated once per **distinct
   value** (the audit-data vocabulary is tiny relative to event volume),
   yielding allowed-code sets;
2. per-partition zone maps (ts min/max, entity codes present) prune
   partitions that cannot match;
3. the admitted ``(type, op)`` postings, bisected to the ts-clamped row
   span, are the candidate rows — every AIQL pattern names both, so the
   scan never walks rows of another type or operation;
4. a code-generated row filter — plain integer set-membership plus the
   few residual numeric tests — keeps the matching candidates;
5. only survivors are materialized back into :class:`Event` objects.

Both evaluation modes build their value tests from
:func:`repro.engine.filters.value_test`, so batch results agree exactly
with the row store's per-event evaluation.
"""

from __future__ import annotations

import bisect
import heapq
import threading
from array import array
from collections import Counter
from itertools import chain
from operator import itemgetter
from typing import (TYPE_CHECKING, Callable, Iterable, Iterator,
                    Sequence)

from repro.errors import StorageError
from repro.model.entities import (DEFAULT_ATTRIBUTE, ENTITY_TYPES, Entity,
                                  ProcessEntity)
from repro.model.events import Event, validate_operation
from repro.model.timeutil import SECONDS_PER_DAY, SPAN_EPSILON, Window
from repro.obs.clock import monotonic
from repro.storage.dedup import EntityInterner
from repro.storage.indexes import like_to_regex
from repro.storage.backend import record_scan
from repro.storage.backend import resolve_spec as _resolved
from repro.storage.scanstats import PartitionStatistics
from repro.storage.stats import PatternProfile, _binding_bound
from repro.engine.filters import Atom, CompiledPredicate

if TYPE_CHECKING:
    from repro.storage.backend import (AccessPathInfo, ColumnBatch,
                                       IdentityBindings, ScanSpec)

_ETYPE_CODE: dict[str, int] = {name: code
                               for code, name in enumerate(ENTITY_TYPES)}
_ETYPE_NAME: tuple[str, ...] = tuple(ENTITY_TYPES)
_MISSING = object()

# Event-level numeric/scalar attributes stored as plain columns; the
# remaining event atoms (operation, event_type, agentid) are dictionary- or
# partition-encoded and handled separately.
_EVENT_COLUMN = {"id": "ids", "ts": "ts", "amount": "amounts",
                 "failcode": "failcodes"}


class ColumnarPartition:
    """One agent/bucket's events as parallel columns, lazily time-sorted."""

    __slots__ = ("agentid", "bucket", "ids", "ts", "ops", "etypes",
                 "subjects", "objects", "amounts", "failcodes", "_sorted",
                 "_sort_lock", "min_ts", "max_ts", "postings",
                 "by_subject", "by_object",
                 "materialized", "stats")

    def __init__(self, agentid: int, bucket: int) -> None:
        self.agentid = agentid
        self.bucket = bucket
        # Lazily built equi-depth timestamp histograms per dictionary-code
        # group, feeding the skew-aware windowed estimates.
        self.stats = PartitionStatistics()
        # Survivor cache: event id -> materialized Event.  Keyed by id (not
        # row) so the lazy time-sort never invalidates it; repeated queries
        # over hot rows skip re-materialization.
        self.materialized: dict[int, Event] = {}
        # Queries can arrive from several threads (the web UI's server,
        # analyst reads beside the stream bus); the lazy resort must not
        # run twice concurrently.
        self._sort_lock = threading.Lock()
        self.ids = array("q")
        self.ts = array("d")
        self.ops = array("i")
        self.etypes = array("b")
        self.subjects = array("q")
        self.objects = array("q")
        self.amounts = array("q")
        self.failcodes = array("q")
        self._sorted = True
        self.min_ts = float("inf")
        self.max_ts = float("-inf")
        # (etype code, op code) -> ascending row indexes of that pair: the
        # scans' candidate rows, and (by length) the type/op cardinalities
        # estimation reads.  Rebuilt whenever the lazy sort moves rows.
        self.postings: dict[tuple[int, int], array] = {}
        # Per-entity-code cardinalities: estimation and zone pruning for
        # identity-binding pushdown (codes present <=> key in counter).
        self.by_subject: Counter = Counter()
        self.by_object: Counter = Counter()

    def append(self, eid: int, ts: float, op_code: int, etype_code: int,
               subject_code: int, object_code: int, amount: int,
               failcode: int) -> None:
        # The lazy sort key is (ts, id): an equal-ts append with an
        # out-of-order id breaks it too (the ordered first/last-k scans
        # rely on exact tie order, not just timestamp order).
        if self.ts and (ts < self.ts[-1]
                        or (ts == self.ts[-1] and eid < self.ids[-1])):
            self._sorted = False
        self.ids.append(eid)
        self.ts.append(ts)
        self.ops.append(op_code)
        self.etypes.append(etype_code)
        self.subjects.append(subject_code)
        self.objects.append(object_code)
        self.amounts.append(amount)
        self.failcodes.append(failcode)
        if ts < self.min_ts:
            self.min_ts = ts
        if ts > self.max_ts:
            self.max_ts = ts
        posting = self.postings.get((etype_code, op_code))
        if posting is None:
            posting = self.postings[(etype_code, op_code)] = array("q")
        posting.append(len(self.ids) - 1)
        self.by_subject[subject_code] += 1
        self.by_object[object_code] += 1

    def _ensure_sorted(self) -> None:
        if self._sorted:
            return
        with self._sort_lock:
            if self._sorted:
                return
            order = sorted(range(len(self.ids)),
                           key=lambda i: (self.ts[i], self.ids[i]))
            for name in ("ids", "ts", "ops", "etypes", "subjects",
                         "objects", "amounts", "failcodes"):
                column = getattr(self, name)
                setattr(self, name, array(column.typecode,
                                          (column[i] for i in order)))
            postings: dict[tuple[int, int], array] = {}
            for row, key in enumerate(zip(self.etypes, self.ops)):
                posting = postings.get(key)
                if posting is None:
                    posting = postings[key] = array("q")
                posting.append(row)
            self.postings = postings
            self._sorted = True

    def row_range(self, window: Window | None) -> tuple[int, int]:
        """Row span ``[lo, hi)`` intersecting the window (sorted order)."""
        if window is None:
            return 0, len(self.ids)
        self._ensure_sorted()
        lo = bisect.bisect_left(self.ts, window.start)
        hi = bisect.bisect_left(self.ts, window.end)
        return lo, hi

    def count_range(self, start: float, end: float) -> int:
        self._ensure_sorted()
        return (bisect.bisect_left(self.ts, end)
                - bisect.bisect_left(self.ts, start))

    def admitted(self, etypes: Iterable[int] | None,
                 ops: Iterable[int] | None) -> list[array]:
        """Postings of the pairs whose event type is in ``etypes`` and
        operation in ``ops`` (``None`` admits any)."""
        return [posting for (etype, op), posting in self.postings.items()
                if (etypes is None or etype in etypes)
                and (ops is None or op in ops)]

    def __len__(self) -> int:
        return len(self.ids)


#: Maximum allowed-code-set size the zone check will probe against a
#: partition's per-code counters.  Binding-propagated sets are tiny;
#: constraint-derived sets (a broad LIKE) can cover most of the
#: vocabulary, where probing would cost more than the scan saves.
_ZONE_PROBE_LIMIT = 64


class _BindingCodes:
    """Identity bindings translated to dictionary-code sets.

    ``None`` on a side means unrestricted, mirroring
    :class:`~repro.storage.backend.IdentityBindings`.
    """

    __slots__ = ("subjects", "objects")

    def __init__(self, subjects: set[int] | None,
                 objects: set[int] | None) -> None:
        self.subjects = subjects
        self.objects = objects

    @property
    def empty(self) -> bool:
        """True when a bound side admits no stored entity at all."""
        return (self.subjects is not None and not self.subjects
                or self.objects is not None and not self.objects)


class _ScanPlan:
    """One predicate lowered against the store's dictionaries.

    ``dim_sets`` maps column name -> allowed code set; ``value_checks``
    are residual ``(column, atom)`` tests on plain numeric columns;
    ``agent_tests`` evaluate once per partition (agentid is constant
    inside one).  ``empty`` marks an unsatisfiable conjunction.  The
    ``etypes``/``ops`` sets pick the candidate postings; ``row_filter``
    tests the rest.
    """

    __slots__ = ("dim_sets", "value_checks", "agent_tests", "row_filter",
                 "empty")

    def __init__(self) -> None:
        self.dim_sets: dict[str, set[int]] = {}
        self.value_checks: list[tuple[str, Atom]] = []
        self.agent_tests: list[Callable[[object], bool]] = []
        self.row_filter: Callable | None = None
        self.empty = False

    @property
    def keyed(self) -> bool:
        """True when postings, not the whole span, supply the rows."""
        return "etypes" in self.dim_sets or "ops" in self.dim_sets

    def candidates(self, partition: ColumnarPartition, lo: int,
                   hi: int) -> Sequence[int]:
        """Ascending candidate rows of the sorted span ``[lo, hi)``: the
        admitted postings bisected to the span, merged when several."""
        if not self.keyed:
            return range(lo, hi)
        slices = []
        for posting in partition.admitted(self.dim_sets.get("etypes"),
                                          self.dim_sets.get("ops")):
            start = bisect.bisect_left(posting, lo)
            stop = bisect.bisect_left(posting, hi, start)
            if start < stop:
                slices.append(posting[start:stop])
        if len(slices) == 1:
            return slices[0]
        return sorted(chain.from_iterable(slices))

    def survivors(self, partition: ColumnarPartition,
                  rows: Sequence[int]) -> list[int]:
        return self.row_filter(rows, partition.ids, partition.ts,
                               partition.ops, partition.etypes,
                               partition.subjects, partition.objects,
                               partition.amounts, partition.failcodes)


_INLINE_OPS = {"=": "==", "!=": "!=", "<": "<", "<=": "<=",
               ">": ">", ">=": ">="}


def _compile_row_filter(dim_items, value_items) -> Callable:
    """Generate the row filter over one scan plan's candidate rows.

    The generated function is a single list comprehension whose condition
    is integer set-membership per dictionary column plus the residual
    numeric tests — the batch-evaluation hot loop, with no per-row
    attribute access or Event construction; with no condition at all it
    is one ``list(rows)``.  Comparisons against numeric
    literals inline as native operators (``amounts[i] > _v0``), which
    matches :func:`repro.engine.filters._compare` exactly because the
    numeric event columns always hold numbers; anything else falls back to
    the atom's :func:`~repro.engine.filters.value_test`.

    An allowed-code collection handed over as a
    :class:`~repro.storage.backend.Bitmap` compiles to a dense flag
    lookup (``_s0[subjects[i]]``) instead of a set probe — one index into
    a bytearray per row, no hashing, whatever the code-set size.  A
    :class:`~repro.storage.backend.BloomedSet` (the huge-vocabulary tier)
    compiles to a multiplicative-hash flag probe that short-circuits the
    exact set probe for the overwhelming majority of non-member rows.
    """
    from repro.storage.backend import _BLOOM_MULTIPLIER, Bitmap, BloomedSet
    conds: list[str] = []
    namespace: dict[str, object] = {}
    for index, (column, allowed) in enumerate(dim_items):
        if isinstance(allowed, Bitmap):
            namespace[f"_s{index}"] = allowed.flags
            conds.append(f"_s{index}[{column}[i]]")
        elif isinstance(allowed, BloomedSet):
            namespace[f"_f{index}"] = allowed.flags
            namespace[f"_m{index}"] = allowed.mask
            namespace[f"_s{index}"] = allowed.codes
            conds.append(
                f"_f{index}[({column}[i] * {_BLOOM_MULTIPLIER}) "
                f"& _m{index}] and {column}[i] in _s{index}")
        else:
            namespace[f"_s{index}"] = allowed
            conds.append(f"{column}[i] in _s{index}")
    for index, (column, atom) in enumerate(value_items):
        value = atom.value
        if (atom.op in _INLINE_OPS
                and isinstance(value, (int, float))
                and not isinstance(value, bool)):
            namespace[f"_v{index}"] = value
            conds.append(f"{column}[i] {_INLINE_OPS[atom.op]} _v{index}")
        elif atom.op == "in":
            namespace[f"_v{index}"] = value
            conds.append(f"{column}[i] in _v{index}")
        else:
            namespace[f"_t{index}"] = atom.make_test()
            conds.append(f"_t{index}({column}[i])")
    body = (f"[i for i in rows if {' and '.join(conds)}]" if conds
            else "list(rows)")
    source = ("def _row_filter(rows, ids, ts, ops, etypes, subjects, "
              "objects, amounts, failcodes):\n"
              f"    return {body}\n")
    exec(source, namespace)  # noqa: S102 - trusted, locally generated
    return namespace["_row_filter"]  # type: ignore[return-value]


def _count_codes(counter: Counter, codes: set[int]) -> int:
    """Total per-code count, iterating whichever side is smaller.

    Binding-propagated code sets can dwarf a partition's distinct-code
    vocabulary; flipping the iteration bounds the estimation work by
    ``min(|codes|, |vocabulary|)`` — the counter-side analogue of the
    row store's posting-key intersection.
    """
    if len(codes) > len(counter):
        return sum(count for code, count in counter.items()
                   if code in codes)
    return sum(counter.get(code, 0) for code in codes)


class ColumnarEventStore:
    """Columnar, partitioned, dictionary-encoded store (``columnar``)."""

    backend_name = "columnar"

    def __init__(self, bucket_seconds: float = SECONDS_PER_DAY) -> None:
        if bucket_seconds <= 0:
            raise StorageError("bucket size must be positive")
        self._bucket_seconds = bucket_seconds
        self._interner = EntityInterner()
        self._entities: list[Entity] = []         # code -> canonical entity
        self._entity_code: dict[tuple, int] = {}  # identity -> code
        self._ops: list[str] = []
        self._op_code: dict[str, int] = {}
        self._partitions: dict[tuple[int, int], ColumnarPartition] = {}
        self._max_id = 0
        self._count = 0
        self._min_ts = float("inf")
        self._max_ts = float("-inf")
        # Allowed-code sets per atom, invalidated when vocabularies grow.
        self._atom_cache: dict[Atom, set[int]] = {}
        # Constraint-value code sets for estimation (same invalidation).
        self._code_cache: dict[tuple, frozenset[int]] = {}

    # ------------------------------------------------------------------
    # Dictionary encoding
    # ------------------------------------------------------------------
    def _entity_code_for(self, entity: Entity) -> tuple[Entity, int]:
        canonical = self._interner.intern(entity)
        code = self._entity_code.get(canonical.identity)
        if code is None:
            code = len(self._entities)
            self._entities.append(canonical)
            self._entity_code[canonical.identity] = code
            self._atom_cache.clear()
            self._code_cache.clear()
        return canonical, code

    def _op_code_for(self, operation: str) -> int:
        code = self._op_code.get(operation)
        if code is None:
            code = len(self._ops)
            self._ops.append(operation)
            self._op_code[operation] = code
            self._atom_cache.clear()
            self._code_cache.clear()
        return code

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------
    def record(self, ts: float, agentid: int, operation: str,
               subject: ProcessEntity, obj: Entity, amount: int = 0,
               failcode: int = 0) -> Event:
        """Build, intern, store, and return one event (agent write path)."""
        subject, subject_code = self._entity_code_for(subject)
        obj, object_code = self._entity_code_for(obj)
        operation = validate_operation(obj.entity_type, operation)
        # _max_id tracks ingested ids too, so recorded ids never collide
        # with archived events (the materialization cache is id-keyed).
        event = Event(id=self._max_id + 1, ts=ts, agentid=agentid,
                      operation=operation, subject=subject, object=obj,
                      amount=amount, failcode=failcode)
        self._append(event, subject, subject_code, obj, object_code)
        return event

    def ingest(self, events: Iterable[Event]) -> int:
        """Store pre-built events, interning their entities."""
        count = 0
        for event in events:
            self._add(event)
            count += 1
        return count

    def _add(self, event: Event) -> None:
        subject, subject_code = self._entity_code_for(event.subject)
        obj, object_code = self._entity_code_for(event.object)
        self._append(event, subject, subject_code, obj, object_code)

    def _append(self, event: Event, subject: ProcessEntity,
                subject_code: int, obj: Entity, object_code: int) -> None:
        key = (event.agentid, int(event.ts // self._bucket_seconds))
        partition = self._partitions.get(key)
        if partition is None:
            partition = ColumnarPartition(*key)
            self._partitions[key] = partition
        partition.append(event.id, event.ts,
                         self._op_code_for(event.operation),
                         _ETYPE_CODE[obj.entity_type],
                         subject_code, object_code, event.amount,
                         event.failcode)
        self._count += 1
        if event.id > self._max_id:
            self._max_id = event.id
        if event.ts < self._min_ts:
            self._min_ts = event.ts
        if event.ts > self._max_ts:
            self._max_ts = event.ts

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------
    def _pruned(self, window: Window | None,
                agentids: set[int] | None) -> Iterator[ColumnarPartition]:
        for (agentid, bucket), partition in self._partitions.items():
            if agentids is not None and agentid not in agentids:
                continue
            if window is not None:
                if (partition.max_ts < window.start
                        or partition.min_ts >= window.end):
                    continue
            yield partition

    def _event_at(self, partition: ColumnarPartition, row: int,
                  cache: bool = True) -> Event:
        eid = partition.ids[row]
        event = partition.materialized.get(eid)
        # The ts guard keeps a duplicate id in a pathological ingest stream
        # from aliasing a different row's cached event.
        if event is None or event.ts != partition.ts[row]:
            event = Event(id=eid, ts=partition.ts[row],
                          agentid=partition.agentid,
                          operation=self._ops[partition.ops[row]],
                          subject=self._entities[partition.subjects[row]],
                          object=self._entities[partition.objects[row]],
                          amount=partition.amounts[row],
                          failcode=partition.failcodes[row])
            if cache:
                partition.materialized[eid] = event
        return event

    def scan(self, window: Window | None = None,
             agentids: set[int] | None = None) -> list[Event]:
        """All events matching the spatial/temporal bounds (full scan).

        Scans read through the materialization cache but do not populate
        it: a full scan would otherwise pin every row as an Event object
        and erase the columnar memory advantage.  Only batch-select
        survivors (the hot rows) are cached.
        """
        events: list[Event] = []
        for partition in self._pruned(window, agentids):
            lo, hi = partition.row_range(window)
            events.extend(self._event_at(partition, row, cache=False)
                          for row in range(lo, hi))
        events.sort(key=lambda e: (e.ts, e.id))
        return events

    def select(self, profile: PatternProfile,
               predicate: CompiledPredicate,
               spec: "ScanSpec | None" = None) -> tuple[list[Event], int]:
        """Evaluate the full residual predicate column-at-a-time.

        Like the row store, candidates come from the ``(type, op)``
        postings; unlike it, the rest of the atom conjunction is pushed
        into the batch row filter, so no non-matching Event object is
        ever materialized.  The spec's identity bindings translate to
        dictionary-code sets and join the filter's membership tests, and
        its temporal bounds clamp the scan itself — zone maps skip whole
        partitions, a binary search over the sorted ts column bounds the
        row span each posting is bisected to — so binding propagation
        prunes *before* survivor materialization too.  ``fetched`` counts
        the candidate rows the filter walked.
        """
        started = monotonic()
        spec = _resolved(spec)
        groups, fetched = self._scan_rows(predicate.atoms, spec)
        events = [self._event_at(partition, row)
                  for partition, rows in groups for row in rows]
        if spec.order is not None:
            # The groups hold the right survivors; present them in the
            # requested order (cheap — an ordered-limited scan already
            # reduced them to at most the pushed k).
            events.sort(key=spec.order.key())
        record_scan(fetched, len(events), monotonic() - started)
        return events, fetched

    def estimate(self, profile: PatternProfile,
                 spec: "ScanSpec | None" = None) -> int:
        """Estimated match cardinality (the pruning-power signal)."""
        spec = _resolved(spec)
        binding_codes = self._binding_codes(spec.bindings)
        if spec.unsatisfiable or (binding_codes is not None
                                  and binding_codes.empty):
            return 0
        # Identical tightening to the one the scan applies, so the
        # estimate stays consistent with the scan it predicts.
        window = spec.clamped()
        return sum(self._estimate_partition(partition, profile, window,
                                            binding_codes)
                   for partition in self._pruned(window, spec.agentids))

    def access_path(self, profile: PatternProfile,
                    spec: "ScanSpec | None" = None) -> "AccessPathInfo":
        """The posting-driven batch scan ``select`` would run (no fetch).

        The columnar store has one physical path — the code-generated row
        filter over the admitted ``(type, op)`` postings, or over the whole
        span when the pattern names neither — but its extent varies: zone
        maps, the postings and the ts clamp decide which candidate rows
        the filter walks.  ``rows`` is exactly the ``fetched`` an
        unlimited ``select``/``select_batches`` over the same profile
        reports; a pushed limit stops the real scan early, and a small
        entity-code set the profile does not carry (a pid atom) may
        zone-prune more.
        """
        from repro.storage.backend import AccessPathInfo
        spec = _resolved(spec)
        binding_codes = self._binding_codes(spec.bindings)
        if spec.unsatisfiable or (binding_codes is not None
                                  and binding_codes.empty):
            return AccessPathInfo("unsatisfiable", 0)
        window = spec.clamped()
        plan = self._scan_plan(self._profile_atoms(profile), binding_codes)
        if plan.empty:
            return AccessPathInfo("unsatisfiable", 0)
        scanned = 0
        walked = 0
        for _partition, rows in self._scan_candidates(plan, window,
                                                      spec.agentids):
            walked += 1
            scanned += len(rows)
        pruned = sum(1 for _ in self._pruned(window, spec.agentids)) - walked
        clamps = [tag for tag, on in (("type+op", plan.keyed),
                                      ("ts-clamp", window is not None)) if on]
        name = "posting-batch" if plan.keyed else "zone-batch"
        if clamps:
            name += f"({','.join(clamps)})"
        if pruned:
            name += f"[{pruned} zone-pruned]"
        return AccessPathInfo(name=name, rows=scanned,
                              considered=(("full-scan", self._count),
                                          (name, scanned)))

    # ------------------------------------------------------------------
    # Batch evaluation
    # ------------------------------------------------------------------
    def _binding_codes(self,
                       bindings: "IdentityBindings | None",
                       ) -> "_BindingCodes | None":
        """Translate identity-binding sets to dictionary-code sets.

        Identities the store has never interned have no code and simply
        drop out; a bound side that ends up empty (empty binding set, or
        all identities unknown) makes the scan unsatisfiable.
        """
        if bindings is None or not bindings:
            return None
        code = self._entity_code
        subjects = objects = None
        if bindings.subjects is not None:
            subjects = {code[identity] for identity in bindings.subjects
                        if identity in code}
        if bindings.objects is not None:
            objects = {code[identity] for identity in bindings.objects
                       if identity in code}
        return _BindingCodes(subjects, objects)

    def _profile_atoms(self, profile: PatternProfile) -> list[Atom]:
        """Lower a PatternProfile to the equivalent atom conjunction."""
        atoms: list[Atom] = []
        if profile.event_type is not None:
            atoms.append(Atom("event", "event_type", "=",
                              profile.event_type))
        if profile.operations:
            atoms.append(Atom("event", "operation", "in",
                              frozenset(profile.operations)))
        if profile.subject_exact is not None:
            atoms.append(Atom("subject", "exe_name", "=",
                              profile.subject_exact))
        elif profile.subject_like is not None:
            atoms.append(Atom("subject", "exe_name", "like",
                              profile.subject_like))
        if profile.event_type is not None:
            attribute = DEFAULT_ATTRIBUTE[profile.event_type]
            if profile.object_exact is not None:
                atoms.append(Atom("object", attribute, "=",
                                  profile.object_exact))
            elif profile.object_like is not None:
                atoms.append(Atom("object", attribute, "like",
                                  profile.object_like))
        return atoms

    def _allowed_codes(self, atom: Atom,
                       vocabulary: Iterable[object]) -> set[int]:
        """Codes of distinct dictionary values satisfying one atom."""
        try:
            cached = self._atom_cache.get(atom)
        except TypeError:          # unhashable constraint value
            cached = None
        if cached is not None:
            return cached
        test = atom.make_test()
        if atom.target == "event":
            allowed = {code for code, value in enumerate(vocabulary)
                       if test(value)}
        else:
            allowed = set()
            attribute = atom.attribute
            for code, entity in enumerate(vocabulary):
                value = getattr(entity, attribute, _MISSING)
                if value is not _MISSING and test(value):
                    allowed.add(code)
        try:
            self._atom_cache[atom] = allowed
        except TypeError:
            pass
        return allowed

    def _scan_plan(self, atoms: Iterable[Atom],
                   binding_codes: "_BindingCodes | None" = None) -> _ScanPlan:
        plan = _ScanPlan()

        def narrow(column: str, allowed: set[int]) -> None:
            existing = plan.dim_sets.get(column)
            plan.dim_sets[column] = (allowed if existing is None
                                     else existing & allowed)

        if binding_codes is not None:
            if binding_codes.subjects is not None:
                narrow("subjects", binding_codes.subjects)
            if binding_codes.objects is not None:
                narrow("objects", binding_codes.objects)
        for atom in atoms:
            if atom.target == "subject":
                narrow("subjects", self._allowed_codes(atom, self._entities))
            elif atom.target == "object":
                narrow("objects", self._allowed_codes(atom, self._entities))
            elif atom.attribute == "operation":
                narrow("ops", self._allowed_codes(atom, self._ops))
            elif atom.attribute == "event_type":
                narrow("etypes", self._allowed_codes(atom, _ETYPE_NAME))
            elif atom.attribute == "agentid":
                plan.agent_tests.append(atom.make_test())
            else:
                column = _EVENT_COLUMN[atom.attribute]
                plan.value_checks.append((column, atom))
        if any(not allowed for allowed in plan.dim_sets.values()):
            plan.empty = True
            return plan
        # Type and operation select the candidate postings, so the filter
        # tests only the entity sets, then the residual numeric tests.
        ordered = [(column, self._compacted(plan.dim_sets[column],
                                            len(self._entities)))
                   for column in ("subjects", "objects")
                   if column in plan.dim_sets]
        plan.row_filter = _compile_row_filter(ordered, plan.value_checks)
        return plan

    @staticmethod
    def _compacted(allowed: set[int], vocab_size: int):
        """Large allowed-code sets become dense bitmaps for the hot loop.

        A set large enough to compact but sparse against a *huge*
        vocabulary takes the bloom tier instead: a ``Bitmap`` would
        allocate and zero one byte per vocabulary entry on every scan,
        while the :class:`~repro.storage.backend.BloomedSet` is sized to
        the set itself and still answers most probes with one index.
        """
        from repro.storage.backend import (BITMAP_THRESHOLD,
                                           BLOOM_VOCAB_RATIO, Bitmap,
                                           BloomedSet)
        if len(allowed) > BITMAP_THRESHOLD:
            if vocab_size > len(allowed) * BLOOM_VOCAB_RATIO:
                return BloomedSet(allowed)
            return Bitmap(allowed, vocab_size)
        return allowed

    def _zone_excluded(self, partition: ColumnarPartition,
                       plan: _ScanPlan) -> bool:
        for column, present in (("subjects", partition.by_subject),
                                ("objects", partition.by_object)):
            allowed = plan.dim_sets.get(column)
            # Entity-code sets can be large (LIKE over a big vocabulary);
            # only probe when small — that is the binding-propagation
            # case, where whole partitions typically drop.  Type and
            # operation need no probe: an absent pair has no posting.
            if (allowed is not None and len(allowed) <= _ZONE_PROBE_LIMIT
                    and not any(code in present for code in allowed)):
                return True
        return False

    def select_batches(self, profile: PatternProfile,
                       predicate: CompiledPredicate,
                       spec: "ScanSpec | None" = None,
                       ) -> tuple[list["ColumnBatch"], int]:
        """Vectorized ``select``: survivors as per-partition column slices.

        The same posting-driven scan as :meth:`select`, but survivors
        never become ``Event`` objects: each partition's matching rows
        come back as a :class:`~repro.storage.backend.ColumnBatch` of
        parallel column slices — contiguous survivor spans slice the
        backing arrays in one C-level copy, scattered survivors gather
        through one ``itemgetter`` — carrying
        only the columns the spec's ``projection`` asks for (``ts``/
        ``id`` always).  Dictionary columns stay codes; the batch carries
        the vocabularies to decode them, and ``hydrate`` materializes
        single rows lazily through the store's survivor cache.
        """
        started = monotonic()
        spec = _resolved(spec)
        groups, fetched = self._scan_rows(predicate.atoms, spec)
        batches = [self._build_batch(partition, rows, spec.projection)
                   for partition, rows in groups if rows]
        record_scan(fetched, sum(len(rows) for _p, rows in groups),
                    monotonic() - started)
        return batches, fetched

    def _build_batch(self, partition: ColumnarPartition, rows: list[int],
                     projection: frozenset[str] | None) -> "ColumnBatch":
        from repro.storage.backend import ColumnBatch
        contiguous = len(rows) == rows[-1] - rows[0] + 1
        if contiguous:
            # Array slices, not memoryviews: a slice is one C-level copy,
            # while a memoryview would pin the writable column (buffer
            # export) and make a later ingest into this partition fail.
            lo, hi = rows[0], rows[-1] + 1

            def column(name: str):
                return getattr(partition, name)[lo:hi]
        else:
            # Scattered posting survivors (at least two rows here): one
            # C-level gather per column, a tuple.
            gather = itemgetter(*rows)

            def column(name: str):
                return gather(getattr(partition, name))

        def want(name: str) -> bool:
            return projection is None or name in projection

        return ColumnBatch(
            agentid=partition.agentid,
            ids=column("ids"), ts=column("ts"),
            ops=column("ops") if want("operation") else None,
            subjects=column("subjects") if want("subject") else None,
            objects=column("objects") if want("object") else None,
            amounts=column("amounts") if want("amount") else None,
            failcodes=column("failcodes") if want("failcode") else None,
            op_names=self._ops, entities=self._entities,
            hydrate=lambda i: self._event_at(partition, rows[i]))

    def _scan_rows(self, atoms: Iterable[Atom], spec: "ScanSpec",
                   ) -> tuple[list[tuple[ColumnarPartition, list[int]]], int]:
        """Surviving row indexes per partition, honoring order and limit.

        Returns ``(groups, examined)`` where each group's rows ascend and
        ``examined`` counts the candidate rows the filter actually walked
        — the early-termination paths make it smaller than the candidates.
        With a pushed :class:`~repro.storage.backend.ScanOrder` limit the
        union of the groups is exactly the global first/last-k survivor
        set under the ``(ts, id)`` comparator.
        """
        binding_codes = self._binding_codes(spec.bindings)
        if spec.unsatisfiable or (binding_codes is not None
                                  and binding_codes.empty):
            return [], 0
        # Lower the bounds onto the window machinery: _pruned tests the
        # tightened window against each partition's ts zone map, and
        # row_range binary-searches the sorted ts column so the filter
        # only walks candidates inside the clamped row span.
        window = spec.clamped()
        plan = self._scan_plan(atoms, binding_codes)
        if plan.empty:
            return [], 0
        order, limit = spec.order, spec.effective_limit
        if order is not None and limit is not None:
            return self._scan_rows_ordered(plan, window, spec.agentids,
                                           order.descending, limit)
        groups: list[tuple[ColumnarPartition, list[int]]] = []
        fetched = 0
        remaining = limit
        for partition, candidates in self._scan_candidates(plan, window,
                                                           spec.agentids):
            # Ascending row index == ascending (ts, id): batch consumers
            # (the vectorized executor's merge shortcut) rely on it.
            fetched += len(candidates)
            rows = plan.survivors(partition, candidates)
            if not rows:
                continue
            if remaining is not None:
                # Plain-limit early stop: the first `limit` survivors in
                # partition-walk order, identical to the old collect-
                # then-truncate prefix, without scanning past them.
                if len(rows) >= remaining:
                    groups.append((partition, rows[:remaining]))
                    remaining = 0
                    break
                remaining -= len(rows)
            groups.append((partition, rows))
        return groups, fetched

    def _scan_rows_ordered(self, plan: _ScanPlan, window: Window | None,
                           agentids: set[int] | None, descending: bool,
                           k: int,
                           ) -> tuple[list[tuple[ColumnarPartition,
                                                 list[int]]], int]:
        """Global first/last-k survivors with chunked early termination.

        Within a partition the sorted row order *is* the ``(ts, id)``
        comparator, so the filter runs over the ascending candidates
        chunk-at-a-time from the cheap end and stops as soon as the
        partition's own best k are decided (for descending that means
        walking past every row tied with the provisional k-th timestamp
        — an earlier row with the same ts has a smaller id and wins).
        Per-partition winners then merge into the global top k; each
        partition's candidate set provably contains all of its rows that
        can appear there.
        """
        per_partition: list[tuple[ColumnarPartition, list[int]]] = []
        examined = 0
        for partition, candidates in self._scan_candidates(plan, window,
                                                           agentids):
            if descending:
                rows, walked = self._last_rows(partition, plan, candidates,
                                               k)
            else:
                rows, walked = self._first_rows(partition, plan, candidates,
                                                k)
            examined += walked
            if rows:
                per_partition.append((partition, rows))
        pairs: list[tuple[float, int, ColumnarPartition, int]] = []
        for partition, rows in per_partition:
            ts_col, ids_col = partition.ts, partition.ids
            if descending:
                pairs.extend((-ts_col[row], ids_col[row], partition, row)
                             for row in rows)
            else:
                pairs.extend((ts_col[row], ids_col[row], partition, row)
                             for row in rows)
        # Event ids are unique, so the (ts, id) prefix decides every
        # comparison before a partition object could be compared.
        best = heapq.nsmallest(k, pairs)
        grouped: dict[ColumnarPartition, list[int]] = {}
        for _ts, _eid, partition, row in best:
            grouped.setdefault(partition, []).append(row)
        return ([(partition, sorted(rows))
                 for partition, rows in grouped.items()], examined)

    @staticmethod
    def _chunks(k: int) -> Iterator[int]:
        """Chunk sizes of an ordered walk: start near k, double up to
        ``ORDERED_CHUNK`` — a posting chunk is mostly survivors, so a
        fixed large chunk would filter far past the k-th one."""
        from repro.storage.backend import ORDERED_CHUNK
        chunk = max(2 * k, 64)
        while True:
            yield chunk
            if chunk < ORDERED_CHUNK:
                chunk = min(2 * chunk, ORDERED_CHUNK)

    def _first_rows(self, partition: ColumnarPartition, plan: _ScanPlan,
                    candidates: Sequence[int], k: int,
                    ) -> tuple[list[int], int]:
        """First k survivors in row (= ``(ts, id)``) order."""
        collected: list[int] = []
        pos, end = 0, len(candidates)
        for chunk in self._chunks(k):
            if pos >= end or len(collected) >= k:
                break
            nxt = min(end, pos + chunk)
            collected.extend(plan.survivors(partition, candidates[pos:nxt]))
            pos = nxt
        return collected[:k], pos

    def _last_rows(self, partition: ColumnarPartition, plan: _ScanPlan,
                   candidates: Sequence[int], k: int,
                   ) -> tuple[list[int], int]:
        """Best k survivors under ``(-ts, id)``, walking from the tail."""
        ts_col, ids_col = partition.ts, partition.ids
        key = lambda row: (-ts_col[row], ids_col[row])  # noqa: E731
        collected: list[int] = []
        end = pos = len(candidates)
        for chunk in self._chunks(k):
            if pos <= 0:
                break
            nxt = max(0, pos - chunk)
            rows = plan.survivors(partition, candidates[nxt:pos])
            if rows:
                collected = rows + collected
            pos = nxt
            if len(collected) >= k and pos > 0:
                best = heapq.nsmallest(k, collected, key=key)
                # Stop only when no earlier row can still win: an earlier
                # row tied with the k-th best timestamp has a smaller id
                # and would displace it.
                if ts_col[candidates[pos - 1]] < ts_col[best[-1]]:
                    return sorted(best), end - pos
        if len(collected) > k:
            collected = heapq.nsmallest(k, collected, key=key)
        return sorted(collected), end - pos

    def _scan_candidates(self, plan: _ScanPlan, window: Window | None,
                         agentids: set[int] | None,
                         ) -> Iterator[tuple[ColumnarPartition,
                                             Sequence[int]]]:
        """The candidate rows the filter walks, after every pruning tier.

        One walk shared by the scan and ``access_path`` so the
        explain surface reports exactly the partitions and candidates
        the real scan would touch: agent tests, zone maps over the
        entity columns, the binary-searched window clamp, and the
        admitted ``(type, op)`` postings bisected to the clamped span.
        Residual ts/amount atoms are left to the row filter: the profile
        ``access_path`` costs from does not carry them.
        """
        for partition in self._pruned(window, agentids):
            if plan.agent_tests and not all(test(partition.agentid)
                                            for test in plan.agent_tests):
                continue
            if self._zone_excluded(partition, plan):
                continue
            partition._ensure_sorted()
            lo, hi = partition.row_range(window)
            if lo >= hi:
                continue
            candidates = plan.candidates(partition, lo, hi)
            if candidates:
                yield partition, candidates

    # ------------------------------------------------------------------
    # Estimation (counter-based analogue of stats.estimate_partition)
    # ------------------------------------------------------------------
    def _estimate_partition(self, partition: ColumnarPartition,
                            profile: PatternProfile,
                            window: Window | None,
                            binding_codes: "_BindingCodes | None" = None
                            ) -> int:
        total = len(partition)
        if total == 0:
            return 0
        windowed = window is not None
        if windowed:
            in_window = partition.count_range(window.start, window.end)
            if in_window == 0:
                return 0
            bounds = [in_window]
        else:
            in_window = 0
            bounds = [total]

        def dim(count_key: tuple, count: int,
                row_test_factory: "Callable[[], Callable[[int], bool]]",
                ) -> int:
            """One dimension's bound: exact count, or its histogram's
            in-window estimate when the scan is windowed.  The row test
            is only built when the (memoized) histogram is."""
            if not windowed or count == 0:
                return count
            histogram = partition.stats.histogram(
                count_key, total,
                lambda: self._dim_timestamps(partition,
                                             row_test_factory()))
            return histogram.estimate_range(window.start, window.end)

        if binding_codes is not None:
            # Binding code sets change per query step; scale their exact
            # counts uniformly (the shared stats helper) instead of
            # building throwaway histograms.
            if binding_codes.subjects is not None:
                bounds.append(_binding_bound(
                    _count_codes(partition.by_subject,
                                 binding_codes.subjects),
                    in_window, total, windowed))
            if binding_codes.objects is not None:
                bounds.append(_binding_bound(
                    _count_codes(partition.by_object,
                                 binding_codes.objects),
                    in_window, total, windowed))
        etype = (_ETYPE_CODE.get(profile.event_type)
                 if profile.event_type is not None else None)
        etypes, ops = partition.etypes, partition.ops
        subjects, objects = partition.subjects, partition.objects
        op_codes = frozenset(self._op_code[op]
                             for op in profile.operations or ()
                             if op in self._op_code)
        if etype is not None or profile.operations:
            count = sum(map(len, partition.admitted(
                None if etype is None else (etype,),
                op_codes if profile.operations else None)))
            if etype is not None and profile.operations:
                bounds.append(dim(
                    ("type+op", etype, op_codes), count,
                    lambda: lambda i: (etypes[i] == etype
                                       and ops[i] in op_codes)))
            elif etype is not None:
                bounds.append(dim(("type", etype), count,
                                  lambda: lambda i: etypes[i] == etype))
            else:
                bounds.append(dim(("op", op_codes), count,
                                  lambda: lambda i: ops[i] in op_codes))
        # Entity constraints count through the store-wide memoized code
        # sets: one dictionary walk per distinct constraint, not a regex
        # match per partition vocabulary entry.
        subject_codes = object_codes = None
        if profile.subject_exact is not None:
            subject_key: tuple = ("subject", profile.subject_exact)
            subject_codes = self._constraint_codes(
                "exe_name", exact=profile.subject_exact)
        elif profile.subject_like is not None:
            subject_key = ("subject~", profile.subject_like)
            subject_codes = self._constraint_codes(
                "exe_name", pattern=profile.subject_like)
        if subject_codes is not None:
            bounds.append(dim(
                subject_key, _count_codes(partition.by_subject,
                                          subject_codes),
                lambda: lambda i: subjects[i] in subject_codes))
        if etype is not None and profile.object_exact is not None:
            object_key: tuple = ("object", etype, profile.object_exact)
            object_codes = self._constraint_codes(
                "default_attribute", exact=profile.object_exact,
                etype_code=etype)
        elif etype is not None and profile.object_like is not None:
            object_key = ("object~", etype, profile.object_like)
            object_codes = self._constraint_codes(
                "default_attribute", pattern=profile.object_like,
                etype_code=etype)
        if object_codes is not None:
            bounds.append(dim(
                object_key, _count_codes(partition.by_object, object_codes),
                lambda: lambda i: objects[i] in object_codes))
        return min(bounds)

    @staticmethod
    def _dim_timestamps(partition: ColumnarPartition,
                        row_test: "Callable[[int], bool]") -> list[float]:
        """Timestamps of the rows one estimation dimension covers."""
        ts = partition.ts
        return [ts[i] for i in range(len(ts)) if row_test(i)]

    def _constraint_codes(self, attribute: str, exact: object = None,
                          pattern: str | None = None,
                          etype_code: int | None = None) -> frozenset[int]:
        """Dictionary codes whose entity attribute matches a constraint.

        Memoized store-wide (the vocabulary is shared across partitions)
        and invalidated together with the atom cache when the vocabulary
        grows — estimation never pays the entity walk twice per value.
        """
        key = (attribute, exact, pattern, etype_code)
        cached = self._code_cache.get(key)
        if cached is not None:
            return cached
        regex = like_to_regex(pattern) if pattern is not None else None
        codes = []
        for code, entity in enumerate(self._entities):
            if (etype_code is not None
                    and _ETYPE_CODE[entity.entity_type] != etype_code):
                continue
            value = getattr(entity, attribute, None)
            if exact is not None:
                if value == exact:
                    codes.append(code)
            elif (regex is not None and isinstance(value, str)
                    and regex.match(value)):
                codes.append(code)
        result = frozenset(codes)
        self._code_cache[key] = result
        return result

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def span(self) -> Window | None:
        if self._count == 0:
            return None
        return Window(self._min_ts, self._max_ts + SPAN_EPSILON)

    @property
    def agentids(self) -> set[int]:
        return {agentid for agentid, _bucket in self._partitions}

    @property
    def entity_count(self) -> int:
        return len(self._interner)

    @property
    def dedup_ratio(self) -> float:
        return self._interner.dedup_ratio

    @property
    def partition_count(self) -> int:
        return len(self._partitions)

    @property
    def bucket_seconds(self) -> float:
        return self._bucket_seconds

    def __len__(self) -> int:
        return self._count
