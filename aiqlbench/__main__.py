"""``python -m aiqlbench run | noise | compare`` (see ``README.md``)."""

import sys

from aiqlbench.cli import main

if __name__ == "__main__":
    sys.exit(main())
