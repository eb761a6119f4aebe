"""Time utilities: timestamps, durations, and time windows.

System monitoring data is bitemporal in a weak sense — every event carries a
wall-clock timestamp and queries constrain a time window (``(at
"mm/dd/2018")`` in AIQL).  This module centralizes parsing and arithmetic so
the parser, engine, and storage all agree on the semantics.

Timestamps are plain ``float`` seconds since the Unix epoch (UTC).  Windows
are half-open intervals ``[start, end)``.
"""

from __future__ import annotations

import datetime as _dt
import re
from dataclasses import dataclass

from repro.errors import DataModelError

SECONDS_PER_MINUTE = 60.0
SECONDS_PER_HOUR = 3600.0
SECONDS_PER_DAY = 86400.0

#: Padding a store's closed data span gets when expressed as a half-open
#: window (``span.end = max_ts + SPAN_EPSILON`` keeps the final event
#: inside).  One constant shared by every backend *and* the streaming
#: runtime — anomaly pane anchoring relies on all of them agreeing.
SPAN_EPSILON = 0.001

_DURATION_RE = re.compile(
    r"^\s*(\d+(?:\.\d+)?)\s*(ms|msec|millisecond|s|sec|second|m|min|minute|"
    r"h|hr|hour|d|day)s?\s*$",
    re.IGNORECASE,
)

_UNIT_SECONDS = {
    "ms": 0.001,
    "msec": 0.001,
    "millisecond": 0.001,
    "s": 1.0,
    "sec": 1.0,
    "second": 1.0,
    "m": SECONDS_PER_MINUTE,
    "min": SECONDS_PER_MINUTE,
    "minute": SECONDS_PER_MINUTE,
    "h": SECONDS_PER_HOUR,
    "hr": SECONDS_PER_HOUR,
    "hour": SECONDS_PER_HOUR,
    "d": SECONDS_PER_DAY,
    "day": SECONDS_PER_DAY,
}

_DATE_FORMATS = (
    "%m/%d/%Y %H:%M:%S",
    "%m/%d/%Y %H:%M",
    "%m/%d/%Y",
    "%Y-%m-%d %H:%M:%S",
    "%Y-%m-%d %H:%M",
    "%Y-%m-%d",
)


def parse_duration(text: str) -> float:
    """Parse a human duration such as ``"1 min"`` or ``"10 sec"`` to seconds.

    >>> parse_duration("1 min")
    60.0
    >>> parse_duration("10 sec")
    10.0
    """
    match = _DURATION_RE.match(text)
    if match is None:
        raise DataModelError(f"unparseable duration: {text!r}")
    value, unit = match.groups()
    return float(value) * _UNIT_SECONDS[unit.lower()]


def format_duration(seconds: float) -> str:
    """Render seconds back to the most natural AIQL duration literal."""
    if seconds < 0:
        raise DataModelError("durations must be non-negative")
    for unit, name in ((SECONDS_PER_DAY, "day"), (SECONDS_PER_HOUR, "hour"),
                       (SECONDS_PER_MINUTE, "min")):
        if seconds >= unit and seconds % unit == 0:
            return f"{int(seconds // unit)} {name}"
    if seconds == int(seconds):
        return f"{int(seconds)} sec"
    return f"{seconds} sec"


#: ``_DATE_FORMATS`` keyed by (uses ``/``, colon count).  ``/``, ``-`` and
#: ``:`` reach a parsed date only as literals, so a text can match only
#: the one format with its separator and colon count: trying that one
#: gives the result and the error of trying all six in order.
_FORMAT_BY_SHAPE = {("/" in fmt, fmt.count(":")): fmt for fmt in _DATE_FORMATS}


def parse_timestamp(text: str) -> float:
    """Parse a date/datetime literal to epoch seconds (UTC).

    Accepts the paper's ``mm/dd/yyyy`` style plus ISO dates, with optional
    time-of-day.
    """
    stripped = text.strip()
    fmt = _FORMAT_BY_SHAPE.get(("/" in stripped, stripped.count(":")))
    if fmt is not None:
        try:
            parsed = _dt.datetime.strptime(stripped, fmt)
        except ValueError:
            pass
        else:
            return parsed.replace(tzinfo=_dt.timezone.utc).timestamp()
    raise DataModelError(f"unparseable date: {text!r}")


def format_timestamp(ts: float) -> str:
    """Render epoch seconds as an ISO datetime string (UTC)."""
    return _dt.datetime.fromtimestamp(ts, tz=_dt.timezone.utc).strftime(
        "%Y-%m-%d %H:%M:%S")


@dataclass(frozen=True, slots=True)
class Window:
    """A half-open time interval ``[start, end)`` in epoch seconds."""

    start: float
    end: float

    def __post_init__(self) -> None:
        if self.end < self.start:
            raise DataModelError(
                f"window end {self.end} precedes start {self.start}")

    @property
    def duration(self) -> float:
        return self.end - self.start

    def contains(self, ts: float) -> bool:
        return self.start <= ts < self.end

    def overlaps(self, other: "Window") -> bool:
        return self.start < other.end and other.start < self.end

    def intersect(self, other: "Window") -> "Window | None":
        start = max(self.start, other.start)
        end = min(self.end, other.end)
        if start >= end:
            return None
        return Window(start, end)

    def shift(self, delta: float) -> "Window":
        return Window(self.start + delta, self.end + delta)

    def split(self, bucket_seconds: float) -> list["Window"]:
        """Split into bucket-aligned sub-windows covering the interval."""
        if bucket_seconds <= 0:
            raise DataModelError("bucket size must be positive")
        windows = []
        cursor = self.start
        while cursor < self.end:
            upper = min(self.end, cursor + bucket_seconds)
            windows.append(Window(cursor, upper))
            cursor = upper
        return windows

    @classmethod
    def for_day(cls, date_text: str) -> "Window":
        """The paper's ``(at "mm/dd/yyyy")`` clause: one whole day."""
        start = parse_timestamp(date_text)
        return cls(start, start + SECONDS_PER_DAY)

    @classmethod
    def between(cls, start_text: str, end_text: str) -> "Window":
        """The ``(from "..." to "...")`` clause."""
        return cls(parse_timestamp(start_text), parse_timestamp(end_text))

    def __str__(self) -> str:
        return f"[{format_timestamp(self.start)} .. {format_timestamp(self.end)})"


def sliding_windows(span: Window, width: float, step: float) -> list[Window]:
    """Enumerate sliding windows of ``width`` advancing by ``step``.

    Windows are anchored at ``span.start`` and enumerated while the window
    start lies inside the span; the final windows may extend past
    ``span.end`` — callers clip membership by event timestamp, matching the
    anomaly-engine semantics of §2.2.3.
    """
    if width <= 0 or step <= 0:
        raise DataModelError("window width and step must be positive")
    windows = []
    cursor = span.start
    while cursor < span.end:
        windows.append(Window(cursor, cursor + width))
        cursor += step
    return windows
