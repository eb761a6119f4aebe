"""Seeded inputs: the one place scenarios and event feeds are built.

All telemetry comes from :mod:`repro.telemetry` with the run's seed; the
program under test only ever sees the generated events and query texts.
"""

from __future__ import annotations

from aiqlbench.harness import Scale
from repro.model.events import Event
from repro.telemetry import (Scenario, build_case2_scenario,
                             build_demo_scenario)


def investigate_scenarios(seed: int, scale: Scale) -> tuple[Scenario, Scenario]:
    """The Figure-4 (demo APT) and Figure-5 (case-2 APT) enterprise days."""
    events = scale.investigate_events_per_host
    return (build_demo_scenario(events_per_host=events, seed=seed),
            build_case2_scenario(events_per_host=events, seed=seed + 1))


def hunt_feed(seed: int, scale: Scale) -> list[Event]:
    """The 8-host day ``hunt``, ``live`` and ``sharded`` share, ts-ordered."""
    return build_demo_scenario(events_per_host=scale.feed_events_per_host,
                               seed=seed,
                               extra_clients=scale.feed_extra_clients).events()


def chunks(events: list[Event], size: int) -> list[list[Event]]:
    return [events[start:start + size]
            for start in range(0, len(events), size)]
