"""Golden-file smoke test for ``repro query --explain``.

The explain surface is part of the CLI contract: the plan section shows
the chosen access path and statistics-based estimate per pattern, the
execution section the actual rows.  The golden file pins the exact
rendering (with timings normalized), so an accidental format or
decision-surface regression fails loudly.  Regenerate with::

    PYTHONPATH=src python tests/test_explain_golden.py > tests/golden/explain_query.txt
"""

from __future__ import annotations

import io
import pathlib
import re

from repro.model.entities import FileEntity, ProcessEntity
from repro.model.events import Event
from repro.storage.serialize import write_events
from repro.ui.main import main

GOLDEN = pathlib.Path(__file__).parent / "golden" / "explain_query.txt"

AIQL = ('proc r["rare.exe"] read file f as e1\n'
        'proc w write file f as e2\n'
        'with e1 before e2\n'
        'return distinct f')

_BASE = 1_000_000.0


def _fixture_events() -> list[Event]:
    """A tiny, fully deterministic day: one rare read pinning ``f``,
    a sea of unrelated writes, one genuine completion."""
    rare = ProcessEntity(1, 1, "rare.exe")
    writer = ProcessEntity(1, 2, "writer.exe")
    target = FileEntity(1, "/data/target")
    events = [Event(id=1, ts=_BASE, agentid=1, operation="read",
                    subject=rare, object=target)]
    for index in range(20):
        events.append(Event(
            id=2 + index, ts=_BASE + 10.0 + index, agentid=1,
            operation="write", subject=writer,
            object=FileEntity(1, f"/noise/{index % 4}")))
    events.append(Event(id=22, ts=_BASE + 50.0, agentid=1,
                        operation="write", subject=writer, object=target))
    return events


def _normalized_output(tmp_path) -> str:
    data = tmp_path / "day.jsonl"
    write_events(_fixture_events(), str(data))
    out = io.StringIO()
    code = main(["query", str(data), AIQL, "--explain"], out)
    assert code == 0
    return re.sub(r"\d+\.\d+ ms", "X ms", out.getvalue())


def test_explain_output_matches_golden(tmp_path):
    assert _normalized_output(tmp_path) == GOLDEN.read_text()


def test_explain_reports_path_estimate_and_actual(tmp_path):
    """Independent of exact formatting: the acceptance surface — path,
    estimated, and actual rows per pattern — must all be present."""
    text = _normalized_output(tmp_path)
    assert "via posting(subject)" in text          # chosen access path
    assert "estimated 1 events" in text            # statistics estimate
    assert "path=" in text                         # per-pattern path
    assert "matched=1" in text                     # actual rows (e1)
    assert "pattern order: e1 -> e2" in text


if __name__ == "__main__":  # regeneration helper
    import sys
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        sys.stdout.write(_normalized_output(pathlib.Path(tmp)))
