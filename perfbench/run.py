"""Benchmark of qmcecon: two workloads of two parts each, end-to-end and
per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all        # both workloads

Run from anywhere; the program is imported from ``src/`` next to this
directory.  With ``--trace 0`` the result carries the end-to-end metrics,
with ``--trace 1`` the per-layer metrics of a traced run.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.  See
README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOAD_NAMES = ("estimates", "circuits-training")
# Set-up is measured in this many fresh processes (the measuring worker is
# one of them) and reported as their median: single samples spread 1.1-1.6 s.
SETUP_SAMPLES = 3
# Each run must end within 180 s; the worker gets what is left of this.
RUN_BUDGET_S = 170.0

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "pass_rate": "ratio"}
PER_LAYER = {
    "engine.run_qmc.self_s": "s",
    "engine.run_qmc.calls": "count",
    "engine.oracle_calls": "count",
    "engine.max_qubits": "qubits",
    "engine.spectral_distribution.self_s": "s",
    "engine.phase_estimation.self_s": "s",
    "engine.assemble_f.self_s": "s",
    "circuits.count_stream.self_s": "s",
    "circuits.gates_counted": "count",
    "circuits.ns_per_gate": "ns",
    "circuits.inverse_qft.self_s": "s",
    "sim.dense_unitary.self_s": "s",
    "sim.dense_unitary.calls": "count",
    "sim.init_state.calls": "count",
    "sim.state_bytes": "bytes",
    "distributions.train_ansatz.self_s": "s",
    "distributions.epochs": "count",
    "distributions.epoch_ms": "ms",
    "distributions.exact_state_prep.self_s": "s",
    "econ.classical_mc.self_s": "s",
    "econ.classical_samples": "count",
    "econ.classical_ns_per_sample": "ns",
    "bench.tau_ns": "ns",
    "bench.error_sweep.self_s": "s",
    "bench.resource_rows.self_s": "s",
    "sim.self_s": "s",
    "circuits.self_s": "s",
    "distributions.self_s": "s",
    "engine.self_s": "s",
    "econ.self_s": "s",
    "bench.self_s": "s",
    "harness.self_s": "s",
    "tracing.traced_wall_s": "s",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}


class BenchError(RuntimeError):
    pass


def run_worker(deadline: float, *args: str) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a worker")
    cmd = [sys.executable, str(HERE / "worker.py"), *args]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker exceeded {remaining:.0f} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {' '.join(args)}\n"
                         + proc.stderr[-3000:])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload: str, seed: int, seconds: float, trace: int, size: str) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    setups = []
    if not trace:
        setups = [run_worker(deadline, *common, "--setup-only")["setup_s"]
                  for _ in range(SETUP_SAMPLES - 1)]
    out = run_worker(deadline, *common, "--seconds", str(seconds), "--trace", str(trace))
    setups.append(out["setup_s"])
    checks = out["checks"]
    failed = sum(not c["ok"] for c in checks)
    if trace:
        values = out["metrics"]
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
    else:
        values = {"wall_s": statistics.median(out["walls"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": out["peak_rss_mb"],
                  "pass_rate": 1.0 - failed / len(checks)}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    return {"workload": workload, "out": out, "setups": setups,
            "result": {"correct": failed == 0, "attempted": len(checks),
                       "failed": failed, "metrics": metrics}}


def report(m: dict) -> None:
    """Human-readable lines: metrics with units, verdicts, host metadata."""
    out, result = m["out"], m["result"]
    print(f"== {m['workload']}  seed {out['meta']['seed']}")
    for name, metric in result["metrics"].items():
        print(f"  {name:40s} {metric['value']:>16.6g} {metric['unit']}")
    if "walls" in out:
        print(f"  {'cpu_s (information, not gated)':40s} {out['cpu_s']:>16.6g} s")
        print(f"  passes: {len(out['walls'])}  wall_s each: "
              + " ".join(f"{w:.3f}" for w in out["walls"]))
        for part, info in out["parts"].items():
            print(f"  part {part:35s} wall_s {statistics.median(info['walls']):9.4f} s"
                  f"   peak_rss_mb {info['peak_rss_mb']:8.1f} MB")
        print(f"  setup_s samples: " + " ".join(f"{s:.3f}" for s in m["setups"]))
    for part, prof in out["meta"].get("part_profiles", {}).items():
        largest = ", ".join(f"{k} {v:.3f}" for k, v in prof["self_s"].items())
        print(f"  part {part}: traced wall_s {prof['wall_s']:.3f}; "
              f"largest self_s: {largest}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':40s} {error_rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} results failed)")
    verdicts = {}
    for c in out["checks"]:
        verdicts.setdefault(c["name"], c)
        if not c["ok"]:
            verdicts[c["name"]] = c
    for c in verdicts.values():
        print(f"  [{'ok' if c['ok'] else 'FAIL'}] {c['name']}: {c['detail']}")
    print("  meta " + json.dumps(out["meta"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: small inputs, for smoke tests only")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "qmcecon" / "__init__.py").is_file():
        print(f"no qmcecon sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        runs = [measure(name, args.seed, args.seconds, args.trace, args.size)
                for name in names]
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1
    for m in runs:
        report(m)
    if len(runs) > 1:
        for m in runs:
            print(json.dumps({"workload": m["workload"], **m["result"]}))
        return 0
    print(json.dumps(runs[0]["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
