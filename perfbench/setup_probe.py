"""Set-up probe: a fresh interpreter imports peierls and parses one sweep's arguments.

Run by ``run.py`` as ``python3 perfbench/setup_probe.py <sweep argv...>``.
Prints one JSON line: the system-wide monotonic clock when parsing ended
(the parent started its clock just before launching this process), plus
the import and parse times measured inside.
"""

import json
import sys
import time

t0 = time.perf_counter()
import peierls  # noqa: E402
from peierls import cli  # noqa: E402

t1 = time.perf_counter()
cli.parse_config(sys.argv[1:])
t2 = time.perf_counter()
print(json.dumps({"done": time.monotonic(), "import_s": t1 - t0, "parse_s": t2 - t1,
                  "module": peierls.__file__}))
