"""What every workload shares: clocks, statistics, spans, oracles, output.

The benchmark owns its instruments.  :class:`Recorder` keeps spans in
memory (name, start, end, parent, workload/op id) and writes them when the
run ends; it wraps public functions of the program from outside
(:meth:`Recorder.patch`) and adopts the spans the program's own tracer
emits (:meth:`Recorder.adopt`), so one file shows both.  :class:`Checker`
counts attempted and failed operations against an oracle.
"""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import multiprocessing
import resource
import statistics
import sys
import threading
import time
import traceback
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, fields
from typing import Callable, Iterable, Iterator, Sequence

from aiqlbench import ROOT
from repro.engine.options import EngineOptions

now = time.perf_counter

#: Where a run may write (span files, durable directories); gitignored.
OUT_DIR = ROOT / ".bench_out"

#: The on/off optimisation levers, read off the dataclass so the benchmark
#: follows the program when a later change removes one.
LEVERS = tuple(f.name for f in fields(EngineOptions) if f.default is True)

#: Every lever off — the configuration the oracle rows come from.
LEVERS_OFF = EngineOptions(**{name: False for name in LEVERS})


@dataclass(frozen=True)
class Scale:
    """Input sizes and repetition counts of one benchmark run."""

    investigate_events_per_host: int   # Figure-4 and Figure-5 scenarios
    feed_events_per_host: int          # the 8-host day of hunt/live/sharded
    feed_extra_clients: int
    setup_reps: int                    # set-ups per run (median reported)
    ingest_reps: int                   # live phase A / sharded ingest reps
    warmup_passes: int
    lever_passes: int                  # timed passes per lever configuration
    auto_checkpoint: int               # events between durable checkpoints
    live_batch: int                    # events per published batch
    live_rate: float                   # open-loop events/s (phase B)
    live_query_every: int              # analyst round every N batches
    ingest_chunk: int = 16_384         # events per store.ingest call


#: Sized so 4 + 22 x 4 runs with set-up end inside the contract's cap on
#: two cores: ~143k events per investigate scenario, a ~118k-event feed.
FULL = Scale(investigate_events_per_host=20_000, feed_events_per_host=10_000,
             feed_extra_clients=3, setup_reps=3, ingest_reps=3,
             warmup_passes=2, lever_passes=2, auto_checkpoint=32_768, live_batch=512,
             live_rate=10_000.0, live_query_every=3)

#: The smoke test's scale: every code path, a second or two per workload.
TINY = Scale(investigate_events_per_host=150, feed_events_per_host=120,
             feed_extra_clients=3, setup_reps=1, ingest_reps=1,
             warmup_passes=1, lever_passes=1, auto_checkpoint=256, live_batch=64,
             live_rate=4_000.0, live_query_every=3)

SCALES = {"full": FULL, "tiny": TINY}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def median(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def mean(values: Iterable[float]) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated quantile of raw samples (no bucketing)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = q * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def slope(points: Sequence[tuple[float, float]]) -> float:
    """Least-squares slope of ``(x, y)`` points (0 with fewer than two)."""
    if len(points) < 2:
        return 0.0
    mean_x = sum(x for x, _y in points) / len(points)
    mean_y = sum(y for _x, y in points) / len(points)
    spread = sum((x - mean_x) ** 2 for x, _y in points)
    if spread == 0:
        return 0.0
    return sum((x - mean_x) * (y - mean_y) for x, y in points) / spread


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

class Recorder:
    """Benchmark-owned spans, kept in memory and written at exit."""

    def __init__(self, workload: str) -> None:
        self.workload = workload
        self.spans: list[dict] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list[tuple[object, str, object]] = []

    def _stack(self) -> list[dict]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, name: str, op: str | None = None,
             **attrs: object) -> Iterator[dict]:
        """Time one call into a layer; nests under the thread's open span."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {"id": next(self._ids), "name": name,
                  "parent": parent["id"] if parent else None,
                  "workload": self.workload,
                  "op": op if op is not None
                  else (parent["op"] if parent else None),
                  "start": now(), "end": 0.0, **attrs}
        stack.append(record)
        try:
            yield record
        finally:
            record["end"] = now()
            stack.pop()
            self.spans.append(record)

    def patch(self, owner: object, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` (a module function or a class's method) in
        a span named ``name`` until :meth:`restore`."""
        original = getattr(owner, attr)

        def traced(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        self.replace(owner, attr, traced)

    def replace(self, owner: object, attr: str, replacement: object) -> None:
        """Swap ``owner.attr`` for ``replacement`` until :meth:`restore`."""
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def adopt(self, tracer, parent: dict) -> list[dict]:
        """Copy the program tracer's spans in as ``prog.<name>`` records.

        The program reports depth and thread, not parents; spans finish
        inner-first, so a span's children are the not-yet-claimed spans
        one level deeper on its thread.  Thread roots hang off ``parent``.
        """
        pending: dict[tuple[int, int], list[dict]] = {}
        adopted = []
        for span in tracer.spans():
            record = {"id": next(self._ids), "name": "prog." + span.name,
                      "parent": parent["id"], "workload": self.workload,
                      "op": parent["op"], "start": span.start,
                      "end": span.end, "tid": span.tid,
                      **{key: value for key, value in span.attrs.items()
                         if isinstance(value, (bool, int, float, str))}}
            for child in pending.pop((span.tid, span.depth + 1), ()):
                child["parent"] = record["id"]
            pending.setdefault((span.tid, span.depth), []).append(record)
            adopted.append(record)
        self.spans.extend(adopted)
        return adopted

    def dump(self) -> None:
        OUT_DIR.mkdir(exist_ok=True)
        path = OUT_DIR / f"spans-{self.workload}.json"
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"workload": self.workload, "clock": "perf_counter s",
                       "spans": self.spans}, handle)


def duration(span: dict) -> float:
    return span["end"] - span["start"]


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def digest(rows: Iterable[tuple]) -> str:
    """Order-insensitive fingerprint of a row multiset."""
    counts = Counter(repr(row) for row in rows)
    hasher = hashlib.sha1()
    for text in sorted(counts):
        hasher.update(f"{counts[text]}x{text}\n".encode("utf-8"))
    return hasher.hexdigest()


class Checker:
    """Counts operations; one fails if it raises or misses its oracle."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failure: str | None = None

    def ok(self, count: int = 1) -> None:
        self.attempted += count

    def fail(self, what: str, detail: str = "") -> None:
        self.attempted += 1
        self.failed += 1
        if self.first_failure is None:
            self.first_failure = f"{what}: {detail}"
            print(f"aiqlbench: FAILED {what}: {detail}", file=sys.stderr)

    def expect(self, what: str, got: object, want: object) -> None:
        if got == want:
            self.ok()
        else:
            self.fail(what, f"got {got!r}, oracle says {want!r}")

    def call(self, what: str, fn: Callable[[], object]) -> object | None:
        """Run one operation at a boundary that must keep going; ``None``
        (and one failed operation) if it raises."""
        try:
            value = fn()
        except Exception:
            self.fail(what, traceback.format_exc(limit=6))
            return None
        self.ok()
        return value


def oracle_digests(store, queries: Sequence[tuple[str, str]]) -> dict[str, str]:
    """Expected rows per query: ``store`` scanned with every lever off."""
    from repro.engine.executor import execute
    from repro.lang.parser import parse
    return {qid: digest(execute(store, parse(text), LEVERS_OFF).rows)
            for qid, text in queries}


# ---------------------------------------------------------------------------
# Process-level measurements
# ---------------------------------------------------------------------------

def _vm_hwm_kib(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


def peak_rss_mb() -> float:
    """High-water RSS of this process plus its worker processes, in MB.

    Live workers are read from ``/proc`` (call this before closing a
    sharded store); reaped ones only leave the largest single child.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    live = sum(_vm_hwm_kib(child.pid)
               for child in multiprocessing.active_children())
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + max(live, reaped)) / 1024.0


def settle() -> None:
    """Finish set-up before timing: collect garbage, then exempt the loaded
    store from later collections so a full GC does not land in one query."""
    gc.collect()
    gc.freeze()


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------

#: What the probe takes on this sandbox's host when nothing contends for
#: the core.  Times are reported as if the host always ran at this speed.
REFERENCE_PROBE_S = 0.003

_PROBE_KEYS = [(index * 7919) % 10007 for index in range(6000)]


def probe() -> float:
    """Seconds for a fixed slice of interpreter work (dict, sort, str).

    The collector is held off meanwhile: the probe allocates, and a full
    collection of a freshly loaded store landing inside it (12 ms instead
    of 3) would be read as a slow host.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        started = now()
        counts: dict[int, int] = {}
        for key in _PROBE_KEYS:
            counts[key] = counts.get(key, 0) + 1
        sorted((count, str(key)) for key, count in counts.items())
        return now() - started
    finally:
        if collecting:
            gc.enable()


class HostSpeed:
    """Rescales wall time to a reference host speed.

    The sandbox's host alternates, every few seconds, between two speed
    states about 27% apart (a pure-CPU loop shows them with no steal
    time: a contended sibling core).  A run's median then lands on
    whichever state held longer, and runs of one commit differ by a
    quarter.  So every timed section is bracketed by :func:`probe`, and
    its duration is multiplied by ``REFERENCE_PROBE_S / local probe``:
    the time it would have taken with the host at the reference speed.
    ``ratio`` (local ÷ reference, > 1 on a slow host) converts back.
    """

    def __init__(self) -> None:
        self.probes: list[float] = []

    def sample(self) -> float:
        self.probes.append(probe())
        return self.probes[-1]

    def factor(self, before: float, after: float) -> float:
        return REFERENCE_PROBE_S / ((before + after) / 2)

    def timed(self, fn: Callable[[], object]) -> tuple[float, object]:
        """Run ``fn``; its seconds at reference speed, and its value."""
        before = self.sample()
        started = now()
        value = fn()
        raw = now() - started
        return raw * self.factor(before, self.sample()), value

    def timed_each(self, fn: Callable[[object], object],
                   items: Iterable[object]) -> float:
        """``fn(item)`` for each item with a probe between items, so a
        speed change mid-way is charged to the items it touched; the
        total seconds at reference speed."""
        total = 0.0
        before = self.sample()
        for item in items:
            started = now()
            fn(item)
            raw = now() - started
            after = self.sample()
            total += raw * self.factor(before, after)
            before = after
        return total

    @property
    def ratio(self) -> float:
        return median(self.probes) / REFERENCE_PROBE_S


def ingest_metrics(events: int, seconds: float) -> dict[str, float]:
    """The same load, as the end-to-end rate and as the per-layer cost."""
    return {"ingest_events_per_s": events / seconds,
            "storage.ingest_ms_per_1k": seconds / events * 1e6}


def repeat_setup(reps: int, build: Callable[[], object]) -> tuple[float, object]:
    """Build the workload ``reps`` times; median set-up seconds and the
    last product, whose ``ingest_seconds`` becomes the median over the
    repetitions too.  ``build`` returns an object with ``setup_seconds``
    and ``ingest_seconds``.

    Earlier products are closed and dropped before the next build so peak
    memory reflects one loaded workload, not the repetitions.
    """
    times = []
    ingests = []
    product = None
    for _ in range(reps):
        if product is not None:
            close = getattr(product, "close", None)
            if close is not None:
                close()
            product = None
            gc.collect()
        product = build()
        times.append(product.setup_seconds)
        ingests.append(product.ingest_seconds)
    product.ingest_seconds = median(ingests)
    return median(times), product
