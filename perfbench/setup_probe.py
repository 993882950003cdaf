"""Set-up time of one CLI call: import cqdeph and parse one config.

    python3 setup_probe.py <src dir> <config>

Prints the seconds from before the import to after ``cli.load_config``.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from cqdeph import cli  # noqa: E402

cli.load_config(sys.argv[2])
print(repr(time.perf_counter() - t0))
