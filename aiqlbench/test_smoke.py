"""Smoke test of the benchmark itself: every workload at a tiny scale.

Collected by the tier-1 command (``python -m pytest`` from the root).
It checks the contract, not the numbers: every name ``BENCHMARK.json``
declares is reported with a finite value and its unit, no operation
fails, a corrupted oracle is noticed, exact counts repeat, and the contract
command leaves no process behind.
"""

from __future__ import annotations

import functools
import math
import os
import subprocess
import sys

import pytest

from aiqlbench import cli

cli.require_program()

SPEC = cli.load_spec()
SECONDS = 0.2


def _measure(workload: str, trace: bool) -> dict:
    return cli.measure(workload, 3, SECONDS, trace, scale="tiny")


_measured = functools.lru_cache(maxsize=None)(_measure)


@pytest.mark.parametrize("workload", cli.WORKLOADS)
def test_declared_workloads_report_every_declared_metric(workload):
    assert [w["name"] for w in SPEC["workloads"]] == list(cli.WORKLOADS)
    for trace, declared in ((False, SPEC["end_to_end"]),
                            (True, SPEC["per_layer"])):
        result = _measured(workload, trace)
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in declared]
        for metric in declared:
            reported = result["metrics"][metric["name"]]
            assert reported["unit"] == metric["unit"]
            assert math.isfinite(reported["value"])
            if not trace:
                assert reported["value"] > 0, metric["name"]


def test_layers_only_report_where_they_run():
    """Shard RPC is zero outside ``sharded``; WAL and stream outside ``live``."""
    hunt = _measured("hunt", True)["metrics"]
    assert hunt["storage.columnar.select_ms"]["value"] > 0
    for name, metric in hunt.items():
        if name.startswith(("storage.sharded.", "storage.wal.", "stream.",
                            "storage.durable.")):
            assert metric["value"] == 0, name


def test_corrupted_oracle_row_is_a_failed_operation(monkeypatch):
    from aiqlbench import hunt
    honest = hunt.feed_oracle

    def corrupted(feed):
        oracle = honest(feed)
        oracle[next(iter(oracle))] = "not-the-digest"
        return oracle

    monkeypatch.setattr(hunt, "feed_oracle", corrupted)
    result = _measure("hunt", False)
    assert result["failed"] > 0 and not result["correct"]


def test_wal_bytes_per_event_repeats_exactly_for_one_seed():
    first = _measured("live", True)["metrics"]["storage.wal.bytes_per_event"]
    second = _measure("live", True)["metrics"]["storage.wal.bytes_per_event"]
    assert first["value"] == second["value"] > 0


def _session_members(sid: int) -> list[str]:
    """``pid state`` of every process, live or zombie, in session ``sid``."""
    members = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", encoding="ascii",
                      errors="replace") as handle:
                state, _ppid, _pgrp, session = (
                    handle.read().rpartition(")")[2].split()[:4])
        except (OSError, ValueError):
            continue
        if int(session) == sid:
            members.append(f"{entry} {state}")
    return members


@pytest.mark.skipif(not os.path.isdir("/proc/self"), reason="needs /proc")
def test_contract_command_leaves_no_process_behind():
    """Shard workers and multiprocessing's resource tracker are gone, and
    reaped, when the command returns."""
    run = subprocess.Popen(
        [sys.executable, str(cli.ROOT / "aiqlbench" / "run.py"),
         "--workload", "sharded", "--seed", "3", "--seconds", str(SECONDS),
         "--trace", "0", "--scale", "tiny"],
        cwd=cli.ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        start_new_session=True)
    _out, err = run.communicate(timeout=120)
    assert run.returncode == 0, err[-2000:]
    assert _session_members(run.pid) == []
