"""Engine options, shared by every execution layer.

One frozen options object travels from the session facade through the
executor, the anomaly engine, and the scheduler — instead of a keyword
tail duplicated at each hop.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from repro.obs.trace import Tracer


@dataclass(frozen=True, slots=True)
class EngineOptions:
    """The two scheduling levers of §2.3 plus per-execution diagnostics.

    ``prioritize`` orders event patterns by pruning power; ``propagate``
    threads identity bindings and temporal bounds from executed patterns
    into the scans of the remaining ones.  Both on is the paper's
    configuration; both off (declaration order, full scans, the join
    does the work) is the independent reference the differential tests
    and the benchmark's oracle compare against.  ``explain`` makes the
    scheduler record the chosen access path per pattern in the execution
    report (the ``repro query --explain`` surface).  ``verify_plans``
    re-derives every :class:`~repro.storage.backend.ScanSpec` the
    scheduler emits from the plan and query alone and raises
    :class:`~repro.engine.verify.PlanVerificationError` on any unsound
    pushdown — a debugging/CI harness, off by default.  ``row_limit``
    caps the intermediate rows for the whole query; the rows counted are
    those that survive the joiner's temporal probe, not the per-identity
    cross product, and a single-pattern query counts its survivors.
    ``None`` means :data:`repro.engine.joiner.DEFAULT_ROW_LIMIT` for
    queries that join and no cap for single-pattern ones (nothing is
    joined).
    """

    prioritize: bool = True      # pruning-power pattern ordering
    propagate: bool = True       # binding propagation between patterns
    explain: bool = False        # record access paths in execution reports
    verify_plans: bool = False   # statically check every emitted ScanSpec
    row_limit: int | None = None
    # Span sink for this execution; None = tracing off.  Excluded from
    # equality/hash/repr: a tracer is a per-query collection vessel, not
    # a behavioural lever (results are identical with or without one).
    tracer: "Tracer | None" = field(default=None, compare=False, repr=False)


DEFAULT_OPTIONS = EngineOptions()
