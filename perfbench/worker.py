"""Run one workload in a fresh process and print its measurements as JSON.

    python3 perfbench/worker.py --workload NAME --seed N [--seconds S]
        [--trace 0|1] [--size full|tiny] [--setup-only]

``run.py`` starts this once per measurement, so every workload gets its own
process: set-up is timed from a cold import and peak RSS is the workload's
own high-water mark.  The last line of stdout is one JSON object.
"""

import time

START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MAX_PASSES = 50


def cpu_seconds() -> float:
    use = resource.getrusage(resource.RUSAGE_SELF)
    return use.ru_utime + use.ru_stime


def blas_threads() -> dict:
    """Thread count of each OpenBLAS library loaded into this process."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()
                and ".so" in line}
    out = {}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                out[Path(path).name] = getter()
                break
    return out


def git_commit() -> str | None:
    """HEAD of the checkout's git repository, if it is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def host_metadata(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    digest = hashlib.sha256()
    for path in sorted((SRC / "qmcecon").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": blas_threads(),
        "git_commit": git_commit(),
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


@dataclass
class Pass:
    outputs: dict
    wall: float
    cpu: float
    part_walls: dict
    part_rss_mb: dict      # peak RSS when each part ended
    part_first_span: dict  # index of each part's first span, when traced


class Runner:
    """One workload: its parts, their inputs, and passes over them."""

    def __init__(self, workloads, name: str, seed: int, size: str):
        self.parts = [(p, workloads.PARTS[p]) for p in workloads.WORKLOADS[name]]
        self.inputs = {p: part.setup(seed, size) for p, part in self.parts}

    def run(self, tracer=None) -> Pass:
        """One timed pass over every part."""
        done = Pass({}, 0.0, 0.0, {}, {}, {})
        cpu0, wall0 = cpu_seconds(), time.perf_counter()
        for p, part in self.parts:
            if tracer is not None:
                done.part_first_span[p] = len(tracer.spans)
            start = time.perf_counter()
            done.outputs[p] = part.run(self.inputs[p])
            done.part_walls[p] = time.perf_counter() - start
            done.part_rss_mb[p] = peak_rss_mb()
        done.wall, done.cpu = time.perf_counter() - wall0, cpu_seconds() - cpu0
        return done

    def check(self, outputs) -> list:
        return [c for p, part in self.parts
                for c in part.check(self.inputs[p], outputs[p])]

    def once(self) -> list:
        return [c for p, part in self.parts for c in part.once(self.inputs[p])]


def part_profiles(tracer, traced: Pass, top: int = 4) -> dict:
    """Per part of the traced pass: its wall time and its largest self times."""
    bounds = list(traced.part_first_span.values()) + [len(tracer.spans)]
    out = {}
    for (p, first), end in zip(traced.part_first_span.items(), bounds[1:]):
        summary = tracer.summary(first, end)
        largest = sorted(summary, key=lambda k: -summary[k]["self_s"])[:top]
        out[p] = {"wall_s": traced.part_walls[p],
                  "self_s": {k: summary[k]["self_s"] for k in largest}}
    return out


def auto_branches(tracer) -> list[dict]:
    """Which evaluation branch each run_qmc call took, as seen in its spans:
    spectral_distribution means spectral, phase_estimation means the circuit
    simulation, and a dense init_state of s + n qubits means powers."""
    out = []
    for i, span in enumerate(tracer.spans):
        if span.name != "engine.run_qmc" or not span.attrs:
            continue
        children = list(tracer.children(i))
        names = {s.name for s in children}
        if "engine.spectral_distribution" in names:
            branch = "spectral"
        elif "engine.phase_estimation" in names:
            branch = "circuit"
        elif any(s.name == "sim.init_state" and s.attrs.get("qubits") == span.attrs["qubits"]
                 for s in children):
            branch = "powers"
        else:
            branch = "unknown"
        out.append({"n": span.attrs["n"], "qubits": span.attrs["qubits"],
                    "method": span.attrs["method"], "branch": branch})
    return out


def layer_metrics(tracer, traced_wall: float, untraced_wall: float) -> dict:
    summary = tracer.summary()

    def get(name, key="self_s"):
        return summary.get(name, {}).get(key, 0)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    gates = get("circuits.count_stream", "gates")
    epochs = get("distributions.train_ansatz", "epochs")
    samples = get("econ.classical_mc", "samples")
    qubits = [s.attrs["qubits"] for s in tracer.spans
              if s.name == "engine.run_qmc" and s.attrs]
    metrics = {
        "engine.run_qmc.self_s": get("engine.run_qmc"),
        "engine.run_qmc.calls": get("engine.run_qmc", "calls"),
        "engine.oracle_calls": get("engine.run_qmc", "oracle_calls"),
        "engine.max_qubits": max(qubits, default=0),
        "engine.spectral_distribution.self_s": get("engine.spectral_distribution"),
        "engine.phase_estimation.self_s": get("engine.phase_estimation"),
        "engine.assemble_f.self_s": get("engine.assemble_f"),
        "circuits.count_stream.self_s": get("circuits.count_stream"),
        "circuits.gates_counted": gates,
        "circuits.ns_per_gate": ratio(get("circuits.count_stream"), gates, 1e9),
        "circuits.inverse_qft.self_s": get("circuits.inverse_qft"),
        "sim.dense_unitary.self_s": get("sim.dense_unitary"),
        "sim.dense_unitary.calls": get("sim.dense_unitary", "calls"),
        "sim.init_state.calls": get("sim.init_state", "calls"),
        "sim.state_bytes": sum(16 * 2 ** s.attrs["qubits"] for s in tracer.spans
                               if s.name == "sim.init_state" and s.attrs),
        "distributions.train_ansatz.self_s": get("distributions.train_ansatz"),
        "distributions.epochs": epochs,
        "distributions.epoch_ms": ratio(get("distributions.train_ansatz"), epochs, 1e3),
        "distributions.exact_state_prep.self_s": get("distributions.exact_state_prep"),
        "econ.classical_mc.self_s": get("econ.classical_mc"),
        "econ.classical_samples": samples,
        "econ.classical_ns_per_sample": ratio(get("econ.classical_mc"), samples, 1e9),
        "bench.tau_ns": get("bench.time_per_sample", "seconds") * 1e9,
        "bench.error_sweep.self_s": get("bench.error_sweep"),
        "bench.resource_rows.self_s": get("bench.resource_rows"),
    }
    for layer in ("sim", "circuits", "distributions", "engine", "econ", "bench"):
        metrics[f"{layer}.self_s"] = sum(v["self_s"] for k, v in summary.items()
                                         if k.startswith(layer + "."))
    metrics["harness.self_s"] = traced_wall - tracer.top_level_seconds()
    metrics["tracing.traced_wall_s"] = traced_wall
    metrics["tracing.overhead_s"] = traced_wall - untraced_wall
    metrics["tracing.spans"] = len(tracer.spans)
    return metrics


def traced_pass(runner: Runner, layers: dict, out: dict, spans_name: str) -> list:
    """One untraced pass, then one traced pass; adds the per-layer metrics
    to ``out`` and writes the spans under .perfbench_out/."""
    from tracer import Tracer

    untraced = runner.run()
    checks = runner.check(untraced.outputs)
    tracer = Tracer()
    namespaces = [m for name, m in sys.modules.items()
                  if name == "qmcecon" or name.startswith("qmcecon.")]
    tracer.install(layers, namespaces)
    try:
        traced = runner.run(tracer)
    finally:
        tracer.uninstall()
    checks += runner.check(traced.outputs)
    out["metrics"] = layer_metrics(tracer, traced.wall, untraced.wall)
    out["meta"]["auto_branches"] = auto_branches(tracer)
    out["meta"]["part_profiles"] = part_profiles(tracer, traced)
    spans_file = ROOT / ".perfbench_out" / spans_name
    spans_file.parent.mkdir(exist_ok=True)
    with open(spans_file, "w") as fh:
        for record in tracer.records():
            fh.write(json.dumps(record) + "\n")
    out["meta"]["spans_file"] = str(spans_file.relative_to(ROOT))
    return checks


def timed_passes(runner: Runner, seconds: float, out: dict) -> list:
    """Untraced passes for about ``seconds``; adds their times to ``out``."""
    walls, cpus, checks = [], [], []
    parts = {p: {"walls": []} for p, _ in runner.parts}
    window = time.perf_counter()
    while True:
        done = runner.run()
        walls.append(done.wall)
        cpus.append(done.cpu)
        for p, wall in done.part_walls.items():
            parts[p]["walls"].append(wall)
        if len(walls) == 1:
            # Later passes can raise the high-water mark a little, and how
            # many passes fit depends on the host's speed.
            out["peak_rss_mb"] = max(done.part_rss_mb.values())
            for p, mb in done.part_rss_mb.items():
                parts[p]["peak_rss_mb"] = mb
        checks += runner.check(done.outputs)
        # Start another pass only if, at the median pass time so far, it ends
        # within the window, so a run lasts about ``seconds``, not a whole
        # pass more.
        expected_end = time.perf_counter() - window + statistics.median(walls)
        if expected_end > seconds or len(walls) >= MAX_PASSES:
            break
    out["walls"] = walls
    out["cpu_s"] = statistics.median(cpus)
    out["parts"] = parts
    return checks


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=60.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import workloads  # imports every qmcecon module, cli included

    import qmcecon
    if Path(qmcecon.__file__).resolve().parent != (SRC / "qmcecon").resolve():
        print(f"imported qmcecon from {qmcecon.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    runner = Runner(workloads, args.workload, args.seed, args.size)
    setup_s = time.perf_counter() - START
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    out = {"setup_s": setup_s, "meta": host_metadata(args.seed)}
    if args.trace:
        checks = traced_pass(runner, workloads.LAYERS, out,
                             f"spans-{args.workload}-seed{args.seed}.jsonl")
    else:
        checks = timed_passes(runner, args.seconds, out)
    checks += runner.once()
    out["checks"] = [vars(c) for c in checks]
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
