"""Golden ASTs and source spans for every shipped query.

The parser's output is pinned query by query: ``repr`` of the AST, and
for every AST node that carries a span (depth-first, fields in
declaration order) its :meth:`SourceMap.span` and
:meth:`SourceMap.operation_spans`.  The corpus is the Figure-4/5
catalogs, the benchmark's IOC-free hunt set and a few hand-written
queries whose tokens span escapes, arrows and history references.  Any
change to the lexer, token widths or span bookkeeping that moves a
single caret fails here.  Regenerate (only for an intended change) with::

    PYTHONPATH=src:. python tests/test_front_end_golden.py > tests/golden/front_end_spans.json

Also here: ``parse_timestamp`` against the try-every-format definition
it short-cuts.
"""

from __future__ import annotations

import dataclasses
import datetime as dt
import json
import pathlib

import pytest
from hypothesis import given, strategies as st

from repro.errors import DataModelError
from repro.lang.parser import parse_with_spans
from repro.model import timeutil

GOLDEN = pathlib.Path(__file__).parent / "golden" / "front_end_spans.json"

#: Hand-written additions: escaped quotes and backslashes inside
#: constraint strings, both dependency arrows, ``||`` alternation, a
#: multi-line header with comments, and anomaly history references.
EXTRA_QUERIES = (
    ("x01-escapes", '(at "06/10/2026") // day\n'
                    'proc p["%a\\"b%", exe_name = "c:\\\\w\\\\x.exe"] '
                    'read || write file f["\\\\tmp\\q"] as e1\n'
                    'return distinct p, f'),
    ("x02-arrows", 'forward: proc p["%x%"] ->[write] file f <-[read || write] '
                   'proc q\nreturn f, q'),
    ("x03-history", 'window = 1 min, step = 10 sec\n'
                    'proc p write ip i as evt\n'
                    'return p, avg(evt.amount) as amt\ngroup by p\n'
                    'having amt > 2 * (amt[1] + amt[2]) / 2 and amt > -1'),
    ("x04-relations", 'agentid = 3 (from "06/10/2026 01:00" to '
                      '"2026-06-10 02:00:30")\n'
                      'proc p1 start proc p2[pid in (1, 2, 3)] as e1\n'
                      'proc p2 write file f[owner != "root", agentid > 1.5] '
                      'as e2\n'
                      'with e1 before e2 within 5 min, p1.exe_name = p2.exe_name\n'
                      'return p1, f.name sort by e1.ts desc top 10'),
)


def corpus() -> list[tuple[str, str]]:
    from aiqlbench.hunt_queries import HUNT_QUERIES
    from repro.investigate import FIGURE4_QUERIES, FIGURE5_QUERIES

    queries = [(entry.id, entry.aiql)
               for catalog in (FIGURE4_QUERIES, FIGURE5_QUERIES)
               for entry in catalog]
    return queries + list(HUNT_QUERIES) + list(EXTRA_QUERIES)


def _nodes(value: object, out: list[object], seen: set[int]) -> None:
    if isinstance(value, tuple):
        for item in value:
            _nodes(item, out, seen)
    elif dataclasses.is_dataclass(value) and id(value) not in seen:
        seen.add(id(value))
        out.append(value)
        for field in dataclasses.fields(value):
            _nodes(getattr(value, field.name), out, seen)


def _span(span) -> list[int] | None:
    return None if span is None else [span.line, span.col, span.length]


def snapshot(qid: str, source: str) -> dict:
    query, spans = parse_with_spans(source, check=False)
    nodes: list[object] = []
    _nodes(query, nodes, set())
    noted = []
    for node in nodes:
        span = spans.span(node)
        operations = spans.operation_spans(node)
        if span is None and not operations:
            continue
        noted.append({"node": type(node).__name__, "span": _span(span),
                      "operations": [_span(s) for s in operations]})
    return {"id": qid, "ast": repr(query), "spans": noted}


def test_corpus_is_the_advertised_one():
    ids = [qid for qid, _ in corpus()]
    assert len(ids) == 46 + 11 + len(EXTRA_QUERIES)
    assert len(set(ids)) == len(ids)


@pytest.mark.parametrize("qid,source", corpus(), ids=lambda v: str(v)[:24])
def test_ast_and_spans_match_golden(qid, source):
    golden = {entry["id"]: entry for entry in json.loads(GOLDEN.read_text())}
    assert snapshot(qid, source) == golden[qid]


# ---------------------------------------------------------------------------
# parse_timestamp: equal to trying every format in order
# ---------------------------------------------------------------------------

def _try_every_format(text: str) -> float:
    stripped = text.strip()
    for fmt in timeutil._DATE_FORMATS:
        try:
            parsed = dt.datetime.strptime(stripped, fmt)
        except ValueError:
            continue
        return parsed.replace(tzinfo=dt.timezone.utc).timestamp()
    raise DataModelError(f"unparseable date: {text!r}")


def _outcome(parse, text: str) -> tuple[str, object]:
    try:
        return "ok", parse(text)
    except DataModelError as exc:
        return "error", str(exc)


_FIELD = st.one_of(st.integers(0, 99).map(str),
                   st.integers(0, 9).map(lambda n: f"0{n}"),
                   st.sampled_from(["2026", "1999", "13", "30", "31", "02",
                                    "29", "x", "", "0000", "123", " 7"]))
_SPACE = st.sampled_from(["", " ", "  ", "\t", "\n"])


@st.composite
def _date_like(draw) -> str:
    sep = draw(st.sampled_from(["/", "-"]))
    date = sep.join(draw(_FIELD) for _ in range(3))
    if draw(st.booleans()):
        date = date.replace(sep, draw(st.sampled_from(["/", "-"])), 1)
    clock = draw(st.lists(_FIELD, max_size=4))
    text = date
    if clock:
        text += draw(st.sampled_from([" ", "  ", "T", ""])) + ":".join(clock)
    return (draw(_SPACE) + text + draw(_SPACE)
            + draw(st.sampled_from(["", "", "x", ":", " 1", "-", "/"])))


@given(_date_like())
def test_parse_timestamp_equals_trying_every_format(text):
    assert (_outcome(timeutil.parse_timestamp, text)
            == _outcome(_try_every_format, text))


@pytest.mark.parametrize("text", [
    "06/10/2026", "6/1/2026", "02/30/2026", "13/01/2026", "2026-02-30",
    "2026-13-01", "2026-06-10 1:2:3", "2026-06-10  01:02", " 06/10/2026 ",
    "06/10/2026 24:00", "06/10/2026 01:02:03x", "2026-06-10 01:02:03:04",
    "06-10-2026", "2026/06/10", "", "06/10/2026 01", "2026-6-1 1:2",
])
def test_parse_timestamp_pinned(text):
    assert (_outcome(timeutil.parse_timestamp, text)
            == _outcome(_try_every_format, text))


if __name__ == "__main__":
    print(json.dumps([snapshot(qid, source) for qid, source in corpus()],
                     indent=1))
