"""scripts/bench_pairs.py alternates the trees, pairs their runs and summarises them."""

import importlib.util
import json
import statistics
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("bench_pairs", ROOT / "scripts" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(bench_pairs)

# a stand-in for sweepbench/run.py: logs which tree ran, then prints the
# result line with that tree's figures, faster on every call in "change"
FAKE_RUN = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    tree = Path(__file__).resolve().parent.parent
    log = tree.parent / "order.log"
    calls = len(log.read_text().split()) if log.exists() else 0
    log.write_text((log.read_text() if log.exists() else "") + tree.name + "\\n")
    fast = tree.name == "change"
    rows = (2000.0 if fast else 1000.0) + calls
    print("workload=" + sys.argv[sys.argv.index("--workload") + 1])
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0 if fast else 1,
                      "metrics": {"rows_per_s": {"value": rows, "unit": "rows/s"},
                                  "sweep_s": {"value": 100.0 / rows, "unit": "s"}}}))
""")


def fake_tree(path: Path) -> Path:
    (path / "sweepbench").mkdir(parents=True)
    (path / "sweepbench" / "run.py").write_text(FAKE_RUN)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rows_per_s", "better": "higher"}, {"name": "sweep_s", "better": "lower"}]}))
    return path


def test_pairs_alternate_and_summarise(tmp_path, capsys):
    parent, change = fake_tree(tmp_path / "parent"), fake_tree(tmp_path / "change")
    code = bench_pairs.main([str(parent), str(change), "--workload", "w1", "--pairs", "4",
                             "--seconds", "1", "--seed", "3", "--label", "fake",
                             "--out", str(tmp_path)])
    assert code == 0
    order = (tmp_path / "order.log").read_text().split()
    assert order == ["parent", "change", "change", "parent"] * 2

    record = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert record["what"] == "fake" and record["seed"] == 3 and record["seconds"] == 1.0
    entry = record["workloads"]["w1"]
    assert entry["pairs"] == 4 and entry["failed"] == {"parent": 4, "change": 0}
    rows = entry["metrics"]["rows_per_s"]
    assert rows["runs"] == {"parent": [1000.0, 1003.0, 1004.0, 1007.0],
                            "change": [2001.0, 2002.0, 2005.0, 2006.0]}
    q1, median, q3 = statistics.quantiles(rows["runs"]["parent"], n=4, method="inclusive")
    assert rows["parent"] == {"q1": q1, "median": median, "q3": q3}
    assert rows["ratio_of_medians"] == round(2003.5 / 1003.5, 4)
    # higher rows/s and lower seconds both count as wins for the change
    assert rows["change_wins"] == 4 and rows["better"] == "higher"
    assert entry["metrics"]["sweep_s"]["change_wins"] == 4
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {tmp_path / 'BENCH_fake.json'}"
