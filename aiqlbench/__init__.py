"""The AIQL reproduction's benchmark: four workloads, one contract.

``BENCHMARK.json`` at the repository root declares the command, the
workloads and every metric; ``README.md`` in this directory explains why
each exists.  Nothing here edits the program under ``src/`` — layers are
measured from outside, through their public functions and the spans and
counters the program already emits.
"""

from __future__ import annotations

import sys
from pathlib import Path

#: The checkout root (this package's parent directory).
ROOT = Path(__file__).resolve().parent.parent


def require_program() -> None:
    """Put ``src/`` on ``sys.path``, or exit non-zero without a result.

    The benchmark measures the program in this checkout; in a directory
    that holds only the benchmark's own files there is nothing to
    measure, and the contract asks for a failing exit there.
    """
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"aiqlbench: no program to measure — {src}/repro "
                         f"is missing from this checkout")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
