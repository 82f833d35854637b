"""Run the benchmark in one or more checkouts and record each as BENCH_<label>.json.

Usage: python tools/bench_record.py [--seeds 1-10] [--workload W ...]
                                    [--out-dir DIR] LABEL=CHECKOUT ...
       python tools/bench_record.py [--out-dir DIR] --chain BEFORE:AFTER ...

For each workload and seed, ``python3 perfbench/run.py --workload W --seed k``
runs in every checkout, one after another.  The checkout that goes first
rotates with the seed, so with two checkouts the pairs alternate which runs
first.  Each run's stdout ends with its ``meta`` line and its JSON result.
Every checkout gets one file, ``BENCH_<label>.json`` in DIR (the repository
root by default), rewritten after each of its runs.  It holds the checkout's
git commit and source digest, the host fields of the ``meta`` line, each
run's four end-to-end metrics, failed count, per-part median walls (the
``part <name> wall_s`` lines) and minimum pass wall (the ``wall_s each:``
line), and each metric's median and quartiles per workload.  The commit is null when ``git status`` shows a
change under ``src/qmcecon`` in the checkout or fails there, since the runs
then measured a source that no commit holds.  Nothing under ``perfbench/``
changes.

Run each side from a fresh ``git clone`` in sibling directories, e.g.
``before/`` and ``after/`` under one parent.  A long-lived working
checkout with byte-identical source read 30-40 % slower on
``circuits-training`` than fresh clones of it, in every one of ten runs,
for a reason outside the code.

``--chain`` runs nothing.  It reads ``BENCH_<label>.json`` from DIR for each
BEFORE:AFTER pair, in the order given, and exits 2 unless each pair's AFTER
digest is the next pair's BEFORE digest.  It prints a markdown table: for
each workload and end-to-end metric, each pair's ratio of medians
(after/before) and the chain's product.  A ratio is marked ``unresolved``
when the two medians differ by no more than the BEFORE's q3 - q1, since
each host session reads its own absolute speed and only the ratios within
a pair compare code.
"""

import argparse
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("estimates", "circuits-training")
METRICS = ("wall_s", "setup_s", "peak_rss_mb", "pass_rate")
HOST_FIELDS = ("nproc", "cpus_usable", "cpu_model", "python", "numpy", "scipy",
               "blas", "blas_threads")
PART_WALL = re.compile(r"\s*part (\S+)\s+wall_s\s+(\S+) s")


def parse_run(stdout: str) -> tuple[dict, dict, dict]:
    """The ``meta`` object, the JSON result and the walls of one
    single-workload run: each part's median wall and the minimum pass wall."""
    lines = stdout.strip().splitlines()
    [meta] = [json.loads(line.strip()[5:]) for line in lines
              if line.strip().startswith("meta ")]
    [passes] = [line.partition("wall_s each:")[2] for line in lines
                if "wall_s each:" in line]
    walls = {"part_walls_s": {match[1]: float(match[2])
                              for match in map(PART_WALL.match, lines) if match},
             "min_pass_wall_s": min(map(float, passes.split()))}
    return meta, json.loads(lines[-1]), walls


def source_committed(checkout: Path) -> bool:
    """Whether git runs in the checkout and shows no change under
    ``src/qmcecon``."""
    try:
        proc = subprocess.run(["git", "status", "--porcelain", "--", "src/qmcecon"],
                              cwd=checkout, capture_output=True, text=True)
    except OSError:
        return False
    return proc.returncode == 0 and not proc.stdout.strip()


def summary(label: str, runs: list[tuple[str, dict, dict, dict]],
            committed: bool) -> dict:
    """The BENCH record of one checkout from its (workload, meta, result,
    walls) runs: commit (None unless ``committed``), host, each run's metrics
    and walls, and per-metric quartiles."""
    metas = [meta for _, meta, _, _ in runs]
    if len({meta["source_sha256"] for meta in metas}) != 1:
        raise ValueError(f"{label}: the runs measured different sources")
    workloads = {}
    for workload, meta, result, walls in runs:
        entry = workloads.setdefault(workload, {"runs": []})
        entry["runs"].append({
            "seed": meta["seed"], "failed": result["failed"],
            "metrics": {m: result["metrics"][m]["value"] for m in METRICS},
            **walls})
    for entry in workloads.values():
        entry["summary"] = {}
        for m in METRICS:
            q1, median, q3 = np.percentile(
                [run["metrics"][m] for run in entry["runs"]], [25, 50, 75])
            entry["summary"][m] = {"median": float(median), "q1": float(q1),
                                   "q3": float(q3)}
    return {"label": label,
            "commit": metas[0]["git_commit"] if committed else None,
            "source_sha256": metas[0]["source_sha256"],
            "host": {field: metas[0][field] for field in HOST_FIELDS},
            "workloads": workloads}


def run_once(checkout: Path, workload: str, seed: int) -> tuple[dict, dict, dict]:
    proc = subprocess.run(["python3", "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed)],
                          cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"{checkout}: {workload} seed {seed} exited "
                         f"{proc.returncode}\n{proc.stderr[-3000:]}")
    return parse_run(proc.stdout)


def seed_range(text: str) -> list[int]:
    first, _, last = text.partition("-")
    seeds = list(range(int(first), int(last or first) + 1))
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty or reversed seed range {text!r}")
    return seeds


def chain_table(pairs: list[tuple[dict, dict]]) -> str:
    """The markdown table of per-pair median ratios and their product for the
    (before, after) records of a linked chain."""
    labels = [f"{before['label']}:{after['label']}" for before, after in pairs]
    lines = ["| Workload | Metric | " + " | ".join(labels) + " | Chained |",
             "| --- | --- | " + "--- | " * len(labels) + "--- |"]
    for workload in WORKLOADS:
        for m in METRICS:
            cells, product = [], 1.0
            for before, after in pairs:
                was = before["workloads"][workload]["summary"][m]
                now = after["workloads"][workload]["summary"][m]["median"]
                ratio = now / was["median"]
                product *= ratio
                resolved = abs(now - was["median"]) > was["q3"] - was["q1"]
                cells.append(f"{ratio:.3f}" + ("" if resolved else " unresolved"))
            lines.append(f"| `{workload}` | `{m}` | " + " | ".join(cells)
                         + f" | {product:.3f} |")
    return "\n".join(lines)


def label_pair(text: str) -> tuple[str, str]:
    before, _, after = text.partition(":")
    if not (before and after):
        raise argparse.ArgumentTypeError(f"expected BEFORE:AFTER, got {text!r}")
    return before, after


def chain(label_pairs: list[tuple[str, str]], out_dir: Path) -> int:
    """Print the chain table of the BEFORE:AFTER pairs; 2 if a link breaks."""
    def load(label):
        return json.loads((out_dir / f"BENCH_{label}.json").read_text())

    pairs = [(load(before), load(after)) for before, after in label_pairs]
    for (_, after), (before, _) in zip(pairs, pairs[1:]):
        if after["source_sha256"] != before["source_sha256"]:
            print(f"broken chain: {after['label']} measured "
                  f"{after['source_sha256'][:12]}, but {before['label']} "
                  f"measured {before['source_sha256'][:12]}", file=sys.stderr)
            return 2
    print(chain_table(pairs))
    return 0


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("checkouts", nargs="*", metavar="LABEL=CHECKOUT")
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    parser.add_argument("--chain", nargs="+", type=label_pair,
                        metavar="BEFORE:AFTER")
    args = parser.parse_args(argv)
    if args.chain:
        if args.checkouts:
            parser.error("--chain reads records and runs no checkout")
        raise SystemExit(chain(args.chain, args.out_dir))
    if not args.checkouts:
        parser.error("name at least one LABEL=CHECKOUT")
    checkouts = [(label, Path(path).resolve()) for label, _, path in
                 (item.partition("=") for item in args.checkouts)]
    runs = {label: [] for label, _ in checkouts}
    committed = {label: source_committed(checkout) for label, checkout in checkouts}
    for workload in args.workload or WORKLOADS:
        for i, seed in enumerate(args.seeds):
            shift = i % len(checkouts)
            for label, checkout in checkouts[shift:] + checkouts[:shift]:
                meta, result, walls = run_once(checkout, workload, seed)
                print(f"{label} {workload} seed {seed}: "
                      + " ".join(f"{m}={result['metrics'][m]['value']:.4g}"
                                 for m in METRICS)
                      + f" failed={result['failed']}"
                      + f" min_pass={walls['min_pass_wall_s']:.4g} "
                      + " ".join(f"{part}={wall:.4g}"
                                 for part, wall in walls["part_walls_s"].items()),
                      flush=True)
                runs[label].append((workload, meta, result, walls))
                path = args.out_dir / f"BENCH_{label}.json"
                record = summary(label, runs[label], committed[label])
                path.write_text(json.dumps(record, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1:])
