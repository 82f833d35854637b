"""tools/bench_record.py on canned benchmark output."""

import argparse
import importlib.util
import json
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
HOST = {"nproc": 2, "cpus_usable": 2, "cpu_model": "cpu", "python": "3.11.7",
        "numpy": "2.4.6", "scipy": "1.17.1", "blas": "openblas 0.3",
        "blas_threads": {"libopenblas.so": 2}}


def _bench_record():
    spec = importlib.util.spec_from_file_location(
        "bench_record", ROOT / "tools" / "bench_record.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _stdout(workload, seed, wall, failed=0, source="d1"):
    meta = {**HOST, "git_commit": "abc123", "source_sha256": source, "seed": seed}
    values = {"wall_s": wall, "setup_s": 0.1 * seed, "peak_rss_mb": 40.0,
              "pass_rate": 1.0 - failed / 4}
    result = {"correct": failed == 0, "attempted": 4, "failed": failed,
              "metrics": {k: {"value": v, "unit": "s"} for k, v in values.items()}}
    return "\n".join([f"== {workload}  seed {seed}",
                      f"  {'wall_s':40s} {wall:>16.6g} s",
                      f"  passes: 3  wall_s each: {wall:.3f} {wall - 0.05:.3f} "
                      f"{wall + 0.1:.3f}",
                      f"  part {'fit':35s} wall_s {wall - 0.1:9.4f} s"
                      f"   peak_rss_mb     40.0 MB",
                      f"  part {'table':35s} wall_s {0.1:9.4f} s"
                      f"   peak_rss_mb     30.0 MB",
                      "  part fit: traced wall_s 0.500; largest self_s: a 0.400",
                      "  [ok] check: detail",
                      "  meta " + json.dumps(meta),
                      json.dumps(result)]) + "\n"


def test_summary_of_canned_runs():
    record = _bench_record()
    runs = [("estimates", *record.parse_run(_stdout("estimates", seed, wall)))
            for seed, wall in zip(range(1, 6), (0.5, 0.9, 0.7, 0.6, 0.8))]
    runs.append(("circuits-training",
                 *record.parse_run(_stdout("circuits-training", 1, 0.2, failed=1))))
    out = record.summary("parent", runs, committed=True)
    assert out["label"] == "parent" and out["commit"] == "abc123"
    assert out["source_sha256"] == "d1" and out["host"] == HOST
    estimates = out["workloads"]["estimates"]
    assert [run["seed"] for run in estimates["runs"]] == [1, 2, 3, 4, 5]
    assert estimates["runs"][1] == {
        "seed": 2, "failed": 0,
        "metrics": {"wall_s": 0.9, "setup_s": 0.2, "peak_rss_mb": 40.0,
                    "pass_rate": 1.0},
        "part_walls_s": {"fit": 0.8, "table": 0.1}, "min_pass_wall_s": 0.85}
    assert estimates["summary"]["wall_s"] == {"median": 0.7, "q1": 0.6, "q3": 0.8}
    training = out["workloads"]["circuits-training"]
    assert training["runs"][0]["failed"] == 1
    assert training["summary"]["pass_rate"] == {"median": 0.75, "q1": 0.75,
                                                "q3": 0.75}
    json.dumps(out)


def test_runs_of_different_sources_refused():
    record = _bench_record()
    runs = [("estimates", *record.parse_run(_stdout("estimates", 1, 0.5))),
            ("estimates", *record.parse_run(_stdout("estimates", 2, 0.5,
                                                     source="d2")))]
    with pytest.raises(ValueError, match="different sources"):
        record.summary("change", runs, committed=True)


def test_seed_range():
    record = _bench_record()
    assert record.seed_range("1-10") == list(range(1, 11))
    assert record.seed_range("3") == [3]
    with pytest.raises(argparse.ArgumentTypeError, match="'10-1'"):
        record.seed_range("10-1")


def test_reversed_seed_range_runs_nothing(tmp_path, monkeypatch, capsys):
    record = _bench_record()
    monkeypatch.setattr(record, "run_once", lambda *args: pytest.fail("ran"))
    with pytest.raises(SystemExit) as exc:
        record.main(["--seeds", "10-1", "--out-dir", str(tmp_path), f"a={ROOT}"])
    assert exc.value.code == 2
    assert "empty or reversed seed range '10-1'" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_walls_of_canned_run():
    record = _bench_record()
    _, _, walls = record.parse_run(_stdout("estimates", 1, 0.5))
    # the traced "part fit:" line is not a part wall
    assert walls == {"part_walls_s": {"fit": 0.4, "table": 0.1},
                     "min_pass_wall_s": 0.45}


def test_commit_null_for_uncommitted_source(tmp_path):
    record = _bench_record()
    runs = [("estimates", *record.parse_run(_stdout("estimates", 1, 0.5)))]
    assert record.summary("change", runs, committed=False)["commit"] is None
    assert not record.source_committed(tmp_path)    # no git repository
    source = tmp_path / "src" / "qmcecon" / "engine.py"
    source.parent.mkdir(parents=True)
    source.write_text("x = 1\n")
    git = ["git", "-c", "user.name=t", "-c", "user.email=t@t"]
    for args in (["init", "-q"], ["add", "-A"], ["commit", "-q", "-m", "c"]):
        subprocess.run(git + args, cwd=tmp_path, check=True)
    (tmp_path / "notes.txt").write_text("outside the source\n")
    assert record.source_committed(tmp_path)
    source.write_text("x = 2\n")
    assert not record.source_committed(tmp_path)


def _write_record(out_dir, label, source, wall, spread=0.0):
    # every metric of both workloads reads 1.0 but wall_s, whose quartiles
    # lie spread / 2 either side of its median
    summary = {m: {"median": 1.0, "q1": 1.0, "q3": 1.0}
               for m in ("wall_s", "setup_s", "peak_rss_mb", "pass_rate")}
    summary["wall_s"] = {"median": wall, "q1": wall - spread / 2,
                         "q3": wall + spread / 2}
    record = {"label": label, "source_sha256": source,
              "workloads": {w: {"summary": summary}
                            for w in ("estimates", "circuits-training")}}
    (out_dir / f"BENCH_{label}.json").write_text(json.dumps(record))


def _chain(out_dir, *pairs):
    record = _bench_record()
    with pytest.raises(SystemExit) as exc:
        record.main(["--out-dir", str(out_dir), "--chain", *pairs])
    return exc.value.code


def test_chain_of_linked_pairs(tmp_path, capsys):
    _write_record(tmp_path, "a", "d0", 1.0, spread=0.1)
    _write_record(tmp_path, "b", "d1", 0.8)
    _write_record(tmp_path, "b2", "d1", 2.0, spread=0.2)
    _write_record(tmp_path, "c", "d2", 1.5)
    assert _chain(tmp_path, "a:b", "b2:c") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "| Workload | Metric | a:b | b2:c | Chained |"
    assert lines[2] == "| `estimates` | `wall_s` | 0.800 | 0.750 | 0.600 |"
    assert lines[3] == ("| `estimates` | `setup_s` | 1.000 unresolved "
                        "| 1.000 unresolved | 1.000 |")
    assert len(lines) == 2 + 2 * 4


def test_chain_marks_ratio_within_before_spread_unresolved(tmp_path, capsys):
    # the medians differ by 0.1: resolved against a spread of 0.09, not 0.1
    for spread, mark in ((0.09, ""), (0.1, " unresolved")):
        _write_record(tmp_path, "a", "d0", 1.0, spread=spread)
        _write_record(tmp_path, "b", "d1", 1.1)
        assert _chain(tmp_path, "a:b") == 0
        row = capsys.readouterr().out.splitlines()[2]
        assert row == f"| `estimates` | `wall_s` | 1.100{mark} | 1.100 |"


def test_broken_chain_exit_2(tmp_path, capsys):
    _write_record(tmp_path, "a", "d0", 1.0)
    _write_record(tmp_path, "b", "d1", 0.8)
    _write_record(tmp_path, "b2", "d9", 2.0)
    _write_record(tmp_path, "c", "d2", 1.5)
    assert _chain(tmp_path, "a:b", "b2:c") == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert "broken chain: b measured d1, but b2 measured d9" in err
    assert _chain(tmp_path, "a:b", "b2") == 2
    assert "expected BEFORE:AFTER, got 'b2'" in capsys.readouterr().err
