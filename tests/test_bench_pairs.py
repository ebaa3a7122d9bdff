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

# a stand-in for sweepbench/run.py: logs which tree ran to LOG, then prints the
# result line with that tree's figures, faster on every call in "change"
FAKE_RUN = textwrap.dedent("""
    import json, sys
    from pathlib import Path
    tree = Path(__file__).resolve().parent.parent
    log = Path(LOG)
    calls = len(log.read_text().split()) if log.exists() else 0
    log.write_text((log.read_text() if log.exists() else "") + tree.name + "\\n")
    fast = tree.name == "change"
    rows = (2000.0 if fast else 1000.0) + calls
    print("workload=" + sys.argv[sys.argv.index("--workload") + 1])
    print(json.dumps({"correct": True, "attempted": 10, "failed": 0 if fast else 1,
                      "metrics": {"rows_per_s": {"value": rows, "unit": "rows/s"},
                                  "sweep_s": {"value": 100.0 / rows, "unit": "s"}}}))
""")


def fake_tree(path: Path, log: Path) -> Path:
    (path / "sweepbench").mkdir(parents=True)
    (path / "sweepbench" / "run.py").write_text(f"LOG = {str(log)!r}\n" + FAKE_RUN)
    (path / "BENCHMARK.json").write_text(json.dumps({"end_to_end": [
        {"name": "rows_per_s", "better": "higher"}, {"name": "sweep_s", "better": "lower"}]}))
    return path


def test_triples_rotate_and_summarise(tmp_path, capsys):
    log = tmp_path / "order.log"
    parent, change = fake_tree(tmp_path / "parent", log), fake_tree(tmp_path / "change", log)
    code = bench_pairs.main([str(parent), str(change), "--workload", "w1", "--pairs", "4",
                             "--seconds", "1", "--seed", "3", "--label", "fake",
                             "--out", str(tmp_path)])
    assert code == 0
    # the control is a copy of the parent, next to it, and gone afterwards
    assert sorted(p.name for p in tmp_path.iterdir()) == ["BENCH_fake.json", "change",
                                                          "order.log", "parent"]
    order = log.read_text().split()
    assert order == ["parent", "control", "change", "control", "change", "parent",
                     "change", "parent", "control", "parent", "control", "change"]

    record = json.loads((tmp_path / "BENCH_fake.json").read_text())
    assert record["what"] == "fake" and record["seed"] == 3 and record["seconds"] == 1.0
    entry = record["workloads"]["w1"]
    assert entry["pairs"] == 4 and entry["failed"] == {"parent": 4, "control": 4, "change": 0}
    rows = entry["metrics"]["rows_per_s"]
    assert rows["runs"] == {"parent": [1000.0, 1005.0, 1007.0, 1009.0],
                            "control": [1001.0, 1003.0, 1008.0, 1010.0],
                            "change": [2002.0, 2004.0, 2006.0, 2011.0]}
    q1, median, q3 = statistics.quantiles(rows["runs"]["parent"], n=4, method="inclusive")
    assert rows["parent"] == {"q1": q1, "median": median, "q3": q3}
    assert rows["ratio_of_medians"] == round(2005.0 / 1006.0, 4)
    assert rows["control_ratio_of_medians"] == round(1005.5 / 1006.0, 4)
    ratios = [1001 / 1000, 1003 / 1005, 1008 / 1007, 1010 / 1009]
    q1, median, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    assert rows["control_ratio_quartiles"] == {"q1": round(q1, 6), "median": round(median, 6),
                                               "q3": round(q3, 6)}
    # higher rows/s and lower seconds both count as wins, for the change and the control
    assert rows["change_wins"] == 4 and rows["better"] == "higher"
    assert rows["control_wins"] == 3
    sweep_s = entry["metrics"]["sweep_s"]
    assert (sweep_s["change_wins"], sweep_s["control_wins"]) == (4, 3)
    assert rows["beyond_control"] and sweep_s["beyond_control"]
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {tmp_path / 'BENCH_fake.json'}"


def canned(values):
    return [{"metrics": {"m": {"value": v}}} for v in values]


def test_a_change_within_the_controls_range_is_not_beyond_it():
    failed = dict.fromkeys(bench_pairs.TREES, 0)
    parent = [100.0, 100.0, 100.0, 100.0]
    control = [101.0, 97.0, 103.0, 99.0]  # the parent drifts by up to 3 % against itself
    for better, change, beyond in [("higher", [102.0] * 4, False), ("higher", [104.0] * 4, True),
                                   ("lower", [98.0] * 4, False), ("lower", [96.0] * 4, True)]:
        runs = {"parent": canned(parent), "control": canned(control), "change": canned(change)}
        entry = bench_pairs.summary(runs, failed, {"m": better})["metrics"]["m"]
        assert entry["beyond_control"] is beyond, (better, change)
        # the change wins every pair either way; the control does not decide the wins
        assert entry["change_wins"] == 4
