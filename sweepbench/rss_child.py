"""Run one sweep of a workload and print its peak resident memory.

    python3 sweepbench/rss_child.py WORKLOAD SEED CSV_PATH

Prints one JSON line: ``maxrss_kb`` (``getrusage``, KiB on Linux) and the
sweep's stdout.  ``run.py`` starts it with ``PYTHONPATH`` pointing at the
package source and the BLAS thread count pinned.
"""

import json
import resource
import sys

from workloads import WORKLOADS

workload, seed, csv_path = sys.argv[1], int(sys.argv[2]), sys.argv[3]
stdout = WORKLOADS[workload].inputs(seed).run(csv_path)
print(json.dumps({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                  "stdout": stdout}))
