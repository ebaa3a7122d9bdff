"""Record the default-seed reference values the correctness check compares with.

    python3 sweepbench/record_reference.py

Sweeps each workload once at the default seed and stores, as JSON under
``sweepbench/reference/``, the inputs and (row index, value_cf, value_exact)
of every row whose t index is a multiple of the workload's stride or the
last one.  Re-record only when a change is meant to move the values, and say
by how much in the change's notes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from check import REFERENCE_DIR, check_sweep, reference_path, reference_rows  # noqa: E402
from workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

#: t-index stride of the recorded rows, per workload.
STRIDES = {"compare_small_alpha": 16, "closed_form_scalar": 64, "exact_large_alpha": 1}


def main() -> int:
    REFERENCE_DIR.mkdir(exist_ok=True)
    csv_path = HERE / "out" / "reference.csv"
    csv_path.parent.mkdir(exist_ok=True)
    for name, workload in WORKLOADS.items():
        inputs = workload.inputs(DEFAULT_SEED)
        stdout = inputs.run(csv_path)
        text = csv_path.read_text(encoding="ascii")
        res = check_sweep(inputs, text, stdout)
        if res.failed:
            print(f"{name}: not recorded, {res.failed} checks failed: {res.problems}")
            return 1
        rows = reference_rows(inputs, text, STRIDES[name])
        data = {"inputs": inputs.describe(), "stride": STRIDES[name], "rows": rows}
        reference_path(name).write_text(json.dumps(data, separators=(",", ":")) + "\n")
        print(f"{name}: {len(rows)} reference rows, verdicts {res.verdicts}")
    csv_path.unlink(missing_ok=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
