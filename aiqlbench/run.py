"""The benchmark command named in ``BENCHMARK.json``.

Run from the checkout root::

    python3 aiqlbench/run.py --workload hunt --seed 7 --seconds 15 --trace 0
"""

import sys
from pathlib import Path

# A script's own directory leads sys.path; swap it for the checkout root so
# every file under aiqlbench/ imports the same way (``aiqlbench.<module>``)
# whether started here, with ``python -m aiqlbench`` or by pytest.  Shard
# workers re-run this file with the parent's path, hence no blind overwrite.
_HERE = Path(__file__).resolve().parent
sys.path[:] = [entry for entry in sys.path
               if Path(entry or ".").resolve() != _HERE]
sys.path.insert(0, str(_HERE.parent))

from aiqlbench.cli import main_run  # noqa: E402

if __name__ == "__main__":
    sys.exit(main_run())
