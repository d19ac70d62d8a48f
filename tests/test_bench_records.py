"""The committed benchmark records (``BENCH_*.json`` at the repository root)
carry what a speed claim rests on: the parent commit, the command, the seeds,
at least ten alternated pairs, the host, equal outputs, and each side's median
and quartiles for every end-to-end metric on every workload of
``BENCHMARK.json``. Each summary is the one its own ``runs`` give."""

import json
import statistics
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_holds_a_full_comparison(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    for key in ("parent_commit", "command", "seeds", "host"):
        assert record.get(key), key
    assert record["alternated_pairs"] >= 10
    assert record["outputs_sha256_equal"] is True
    for workload in SPEC["workloads"]:
        for metric in SPEC["end_to_end"]:
            name = f"{workload['name']}.{metric['name']}"
            entry = record["summary"][name]
            for side in ("parent", "change"):
                stats = entry[side]
                assert all(isinstance(stats[k], (int, float)) for k in ("median", "q1", "q3")), (
                    name, side)
                assert stats["q1"] <= stats["median"] <= stats["q3"], (name, side)


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_summary_follows_from_its_runs(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    runs = record["runs"]
    assert len(runs) == record["alternated_pairs"]
    for run in runs:
        for side in ("parent", "change"):
            assert run[side]["correct"] is True and run[side]["failed"] == 0, (run["seed"], side)
    for name, entry in record["summary"].items():
        values = {side: [run[side]["metrics"][name]["value"] for run in runs]
                  for side in ("parent", "change")}
        for side, side_values in values.items():
            assert statistics.median(side_values) == pytest.approx(
                entry[side]["median"], rel=1e-5), (name, side)
        lower = entry["better"] == "lower"
        wins = sum(change < parent if lower else change > parent
                   for parent, change in zip(values["parent"], values["change"]))
        assert wins == entry["change_wins"], name
