"""Tests for posting/time indexes and LIKE semantics."""

import re

import pytest
from hypothesis import given, strategies as st

from repro.model.entities import FileEntity, ProcessEntity
from repro.model.events import Event
from repro.storage.indexes import (PostingIndex, TimeIndex, clip_to_window,
                                   like_match, like_to_regex)


def make_event(eid: int, ts: float, name: str) -> Event:
    subject = ProcessEntity(1, 10, name)
    return Event(id=eid, ts=ts, agentid=1, operation="read",
                 subject=subject, object=FileEntity(1, f"/f/{eid}"))


class TestLike:
    @pytest.mark.parametrize("pattern,value,expected", [
        ("%cmd.exe", "cmd.exe", True),
        ("%cmd.exe", r"C:\windows\cmd.exe", True),
        ("%cmd.exe", "cmd.exe.bak", False),
        ("cmd%", "cmd.exe", True),
        ("%mal%", "normal.txt", True),
        ("_md.exe", "cmd.exe", True),
        ("_md.exe", "md.exe", False),
        ("CMD.EXE", "cmd.exe", True),   # case-insensitive like SQLite
        ("a.b", "aXb", False),           # dot is literal
        ("%", "", True),
        ("", "", True),
        ("", "x", False),
    ])
    def test_matches(self, pattern, value, expected):
        assert like_match(pattern, value) is expected

    @given(st.text(alphabet="ab%_", max_size=8),
           st.text(alphabet="ab", max_size=8))
    def test_agrees_with_naive_regex(self, pattern, value):
        naive = "^" + "".join(
            ".*" if c == "%" else "." if c == "_" else re.escape(c)
            for c in pattern) + "$"
        expected = re.match(naive, value, re.IGNORECASE) is not None
        assert like_match(pattern, value) is expected

    def test_regex_special_chars_escaped(self):
        assert like_match("a+b", "a+b")
        assert not like_match("a+b", "aab")

    def test_compiled_patterns_are_cached(self):
        # Repeated filter evaluation must not recompile the regex: the
        # lru_cache hands back the identical compiled pattern object.
        from repro.storage.indexes import like_to_regex
        assert like_to_regex("%cache-me%") is like_to_regex("%cache-me%")
        info = like_to_regex.cache_info()
        assert info.maxsize and info.hits >= 1


class TestPostingIndex:
    def test_lookup_exact(self):
        index = PostingIndex()
        e1, e2 = make_event(1, 1.0, "a.exe"), make_event(2, 2.0, "b.exe")
        index.add("a.exe", e1)
        index.add("b.exe", e2)
        assert index.lookup("a.exe") == [e1]
        assert index.lookup("missing") == []

    def test_lookup_like_unions_matching_keys(self):
        index = PostingIndex()
        events = [make_event(i, float(i), f"tool{i}.exe") for i in range(5)]
        for event in events:
            index.add(event.subject.exe_name, event)
        matched = index.lookup_like("tool%.exe")
        assert sorted(e.id for e in matched) == [0, 1, 2, 3, 4]
        assert index.lookup_like("%3.exe") == [events[3]]

    def test_counts(self):
        index = PostingIndex()
        for i in range(4):
            index.add("x", make_event(i, float(i), "x"))
        index.add("y", make_event(9, 9.0, "y"))
        assert index.count("x") == 4
        assert index.count("nope") == 0
        assert index.count_like("%") == 5
        assert len(index) == 5
        assert index.distinct == 2

    def test_non_string_keys_ignored_by_like(self):
        index = PostingIndex()
        index.add(("file", "x"), make_event(1, 1.0, "x"))
        assert index.lookup_like("%") == []
        assert index.count_like("%") == 0

    def test_lookup_many_intersects_oversized_key_sets(self):
        """A key set larger than the posting vocabulary flips to key
        intersection — same merged, (ts, id)-sorted result as probing
        each key."""
        index = PostingIndex()
        events = [make_event(i, float(10 - i), f"k{i % 3}")
                  for i in range(9)]
        for event in events:
            index.add(event.subject.exe_name, event)
        huge = frozenset({f"k{i}" for i in range(50)})  # 50 keys > 3 distinct
        via_intersection = index.lookup_many(huge)
        via_probes = index.lookup_many(sorted(huge))   # a list: probed
        assert via_intersection == via_probes
        assert [e.ts for e in via_intersection] == sorted(
            e.ts for e in events)
        assert index.count_many(huge) == index.count_many(sorted(huge)) == 9


class TestTimeIndex:
    def test_range_is_half_open(self):
        index = TimeIndex()
        events = [make_event(i, float(i), "x") for i in range(10)]
        for event in events:
            index.add(event)
        got = index.range(2.0, 5.0)
        assert [e.id for e in got] == [2, 3, 4]
        assert index.count_range(2.0, 5.0) == 3

    def test_out_of_order_inserts_are_sorted_lazily(self):
        index = TimeIndex()
        for ts in (5.0, 1.0, 3.0):
            index.add(make_event(int(ts), ts, "x"))
        assert [e.ts for e in index.all()] == [1.0, 3.0, 5.0]

    @given(st.lists(st.floats(min_value=0, max_value=100), max_size=40))
    def test_range_equals_linear_filter(self, timestamps):
        index = TimeIndex()
        events = [make_event(i, ts, "x")
                  for i, ts in enumerate(timestamps)]
        for event in events:
            index.add(event)
        got = index.range(25.0, 75.0)
        expected = clip_to_window(sorted(events,
                                         key=lambda e: (e.ts, e.id)),
                                  25.0, 75.0)
        assert got == expected
