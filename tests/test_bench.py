import json
import math
import os
import subprocess
import sys
import threading
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np
import pytest

from qmcecon import bench, econ, sim
from qmcecon.bench import (
    ScalingFit,
    SweepSpec,
    _bench_ansatz,
    depth_fit,
    error_sweep,
    loglog_fit,
    resource_rows,
    runtime_extrapolate,
    time_per_sample,
)
from qmcecon.circuits import (ELEMENTARY_KINDS, count_resources, count_stream,
                              decompose, lower_gates, transfer_matrix)
from qmcecon.distributions import discretize_normal
from qmcecon.engine import (LinearRParams, assemble_f, grover_operator,
                            normalize_rv)
from qmcecon.sim import Circuit

from util import fit_r_squared, flat_phase_estimation, write_stress_config


def _benchmark_f(m, n, layers):
    """The F circuit that ``resource_rows`` counts, built by hand."""
    dist = discretize_normal(m, 1.0, econ.BENCH_SIGMA, 0.94, 1.06)
    rv = normalize_rv(econ.BENCH_C1 + econ.BENCH_C2 * dist.grid)
    linear = LinearRParams.for_oracle_budget(rv, n)
    return assemble_f([dist], rv, _bench_ansatz(m, layers), linear)


class TestLoglogFit:
    def test_pure_inverse_law(self):
        points = [(N, 1.0 / N) for N in (10, 100, 1000, 10000)]
        fit = loglog_fit(points)
        assert fit.slope == pytest.approx(-1.0, abs=1e-10)
        assert fit.intercept == pytest.approx(0.0, abs=1e-10)

    def test_two_thirds_law(self):
        points = [(N, 3.7 * N ** (-2 / 3)) for N in (10, 100, 1000)]
        fit = loglog_fit(points)
        assert fit.slope == pytest.approx(-2 / 3, abs=1e-10)
        assert 10 ** fit.intercept == pytest.approx(3.7, rel=1e-10)

    def test_needs_three_points(self):
        with pytest.raises(ValueError):
            loglog_fit([(10, 1.0), (100, 0.1)])

    def test_r_squared_of_clean_line(self):
        points = [(N, 2.0 * N ** (-0.8)) for N in (10, 100, 1000, 10000)]
        assert fit_r_squared(loglog_fit(points)) == pytest.approx(1.0)


class TestSweepSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepSpec("weird", "classical", [1, 2])
        with pytest.raises(ValueError):
            SweepSpec("simple", "classical", [100, 10])
        with pytest.raises(ValueError):
            SweepSpec("simple", "classical", [10, 100], repeats=0)
        with pytest.raises(ValueError):
            SweepSpec("stress", "qmc_linear", [4, 5])

    def test_default_register_size(self):
        assert SweepSpec("neoclassical", "qmc_exact", [4, 5]).m == econ.BENCH_M
        assert SweepSpec("stress", "qmc_exact", [2, 3]).m == 5

    def test_quantum_rows_deterministic(self):
        spec = SweepSpec("simple", "qmc_exact", [3, 4], m=3)
        rows_a = error_sweep(spec)
        rows_b = error_sweep(spec)
        assert [r["error"] for r in rows_a] == [r["error"] for r in rows_b]
        assert [r["N"] for r in rows_a] == [7, 15]

    def test_classical_rows_average_repeats(self):
        spec = SweepSpec("neoclassical", "classical", [100, 1000],
                         repeats=4, seed=3)
        rows = error_sweep(spec)
        assert len(rows) == 2
        assert all(row["error"] > 0 for row in rows)


def _serial_rows(spec):
    """The classical rows of ``spec`` from a plain loop over its repeats."""
    w, rows = spec.workload, []
    for n_samples in spec.range:
        errors = [econ.classical_mc(w, n_samples, seed=spec.seed + 7919 * rep).abs_error
                  for rep in range(spec.repeats)]
        rows.append({"app": spec.app, "estimator": "classical", "n": "",
                     "N": n_samples, "error": float(np.mean(errors))})
    return rows


def _without_wall_time(rows):
    return [{k: v for k, v in row.items() if k != "wall_time_s"} for row in rows]


def test_classical_rows_match_serial_runs():
    # repeats not a multiple of the workers, and N crossing the chunk boundary
    points = [100, econ.CLASSICAL_CHUNK + 1, 3 * econ.CLASSICAL_CHUNK + 5]
    for app in econ.APPS:
        spec = SweepSpec(app, "classical", points, repeats=5, seed=11)
        rows = error_sweep(spec)
        assert _without_wall_time(rows) == _serial_rows(spec), app
        assert all(row["wall_time_s"] > 0 for row in rows)


@pytest.mark.parametrize("cpus,repeats,workers", [(4, 1, 1), (4, 2, 2),
                                                   (4, 9, 4), (1, 9, 1)])
def test_classical_workers_fit_values_cap(monkeypatch, cpus, repeats, workers):
    # a cap with room for the repeats' errors and wall times but not for one
    # N-sized values buffer: memory does not limit the workers, the CPUs and
    # the repeats do
    n_samples = 1000
    spec = SweepSpec("neoclassical", "classical", [n_samples], repeats=repeats,
                     seed=4)
    expected = _serial_rows(spec)
    started = []

    class RecordingThread(threading.Thread):
        def start(self):
            started.append(self)
            super().start()

    monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(bench.threading, "Thread", RecordingThread)
    monkeypatch.setattr(sim, "MEMORY_BUDGET", 16 * repeats)
    assert 16 * repeats < 8 * n_samples
    rows = error_sweep(spec)
    # worker 0 runs on the calling thread
    assert len(started) == workers - 1
    assert _without_wall_time(rows) == expected


@pytest.mark.parametrize("failing_repeat", [1, 0])
def test_classical_worker_failure_propagates(monkeypatch, failing_repeat):
    # with 2 workers, repeat 1 runs on the spawned thread and repeat 0 on the
    # calling thread; either failure reaches the caller once both are joined
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 2)
    spec = SweepSpec("neoclassical", "classical", [1000], repeats=4, seed=4)
    failing_seed = spec.seed + 7919 * failing_repeat
    classical_mc = econ.classical_mc

    def failing_mc(*args, seed, **kwargs):
        if seed == failing_seed:
            raise RuntimeError(f"repeat {failing_repeat} failed")
        return classical_mc(*args, seed=seed, **kwargs)

    monkeypatch.setattr(econ, "classical_mc", failing_mc)
    threads_before = threading.active_count()
    with pytest.raises(RuntimeError, match=f"repeat {failing_repeat} failed"):
        error_sweep(spec)
    assert threading.active_count() == threads_before


def test_classical_many_workers_match_serial(monkeypatch):
    # more workers than cores, with the interpreter switching threads often
    monkeypatch.setattr(bench, "_usable_cpus", lambda: 8)
    spec = SweepSpec("stress", "classical", [5 * econ.CLASSICAL_CHUNK + 7],
                     repeats=17, seed=5)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        rows = error_sweep(spec)
    finally:
        sys.setswitchinterval(interval)
    assert _without_wall_time(rows) == _serial_rows(spec)


class TestResources:
    def test_report_schema(self):
        rows = resource_rows(3, [3, 4], layers=2)
        assert list(rows[0]) == ["n", "total_gates", "rx", "ry", "rz", "cnot",
                                 "depth", "num_qubits"]
        assert rows[0]["num_qubits"] == 3 + 1 + 3 + 2  # register+ancilla+est+work
        assert rows[1]["depth"] > rows[0]["depth"]

    def test_counts_match_direct_decomposition(self):
        # the composed count against the lowering of the flat circuit;
        # n = 1 exchanges no wires and n = 2 one pair, m = 1 lowers the
        # controlled reflection as one Toffoli and m = 2 as a one-wire ladder
        cases = ([(m, 2, n) for m in (1, 2) for n in range(1, 5)]
                 + [(3, 2, n) for n in range(1, 8)]
                 + [(7, 10, n) for n in range(1, 7)])
        for m, layers, n in cases:
            circuit = flat_phase_estimation(_benchmark_f(m, n, layers), n)
            # m+1 system wires: the controlled MCX has m+1 controls, m-1 work wires
            work = range(circuit.num_qubits, circuit.num_qubits + m - 1)
            direct = count_resources(decompose(circuit, work))
            assert resource_rows(m, [n], layers) == [{
                "n": n, "total_gates": direct.total_gates,
                **{kind: direct.counts.get(kind, 0) for kind in ELEMENTARY_KINDS},
                "depth": direct.depth, "num_qubits": direct.num_qubits,
            }], (m, layers, n)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_table_rows_match_rows_counted_alone(self, m):
        # the table builds F and block 0 once, for its largest n; m = 1 and 2
        # have no work wire and one, and n = 1 exchanges no wires
        rows = resource_rows(m, range(1, 9), layers=2)
        assert rows == [row for n in range(1, 9)
                        for row in resource_rows(m, [n], layers=2)]

    def test_table_builds_one_block(self, monkeypatch):
        # and makes one memory check, for its largest n
        calls, checks = [], []

        def recording(*args):
            calls.append(args[1])
            return grover_operator(*args)

        monkeypatch.setattr(bench, "grover_operator", recording)
        monkeypatch.setattr(sim, "check_memory", lambda what, *size: checks.append(what))
        resource_rows(5, range(3, 11), layers=10)
        assert calls == [6]
        assert checks == ["counting 10 ansatz layers at n=10"]

    def test_table_scans_only_the_h_layer(self, monkeypatch):
        # the gate-by-gate reference scans the one-wire H layer alone; F,
        # block 0 and each row's inverse QFT are composed from transfer
        # matrices, one apiece
        scans, widths = [], []

        def scan(gates, width):
            gates = list(gates)
            scans.append((sorted(g.kind for g in gates), width))
            return count_stream(gates, width)

        def compose(gates, width):
            widths.append(width)
            return transfer_matrix(gates, width)

        monkeypatch.setattr(bench, "count_stream", scan)
        monkeypatch.setattr(bench, "transfer_matrix", compose)
        resource_rows(5, range(3, 11), layers=10)
        assert scans == [(["ry", "rz"], 1)]
        assert widths == [11, 11, *range(10, 2, -1)]

    def test_depth_closed_form_at_large_n(self, monkeypatch):
        # m = 7: the controlled-Q blocks end at 604 * 2**n - 528, and from
        # n = 20 on the inverse QFT's tail on the estimation wires ends
        # 4n - 79 gates later; counted without the inverse QFT, the closed
        # form holds at every n
        n_values = range(3, 40)
        depths = [row["depth"] for row in resource_rows(7, n_values)]
        assert depths == [604 * 2**n - 528 + max(0, 4 * n - 79)
                          for n in n_values]
        monkeypatch.setattr(bench, "inverse_qft", lambda qs: Circuit(len(qs)))
        depths = [row["depth"] for row in resource_rows(7, n_values)]
        assert depths == [604 * 2**n - 528 for n in n_values]

    def test_controlled_q_blocks_lower_alike_up_to_a_wire_exchange(self):
        # the table counts block 0 only and exchanges est[0] and est[k];
        # each block k here is built on its own
        m, n = 3, 4
        s = m + 1
        work = range(s + n, s + n + m - 1)
        f = _benchmark_f(m, n, 2)
        block = grover_operator(f, s)
        first = list(lower_gates(block.gates, work))
        for k in range(n):
            swap = {s: s + k, s + k: s}
            exchanged = [replace(g, targets=tuple(swap.get(q, q) for q in g.targets),
                                 controls=tuple(swap.get(q, q) for q in g.controls))
                         for g in first]
            own = grover_operator(f, s + k)
            assert list(lower_gates(own.gates, work)) == exchanged, k

    def test_count_past_int64_headroom_rejected(self):
        # n = 50 makes 0.58 * 2**61 gates at m = 5 and is counted, so every
        # depth stays below the NO_PATH headroom; n = 51 is refused
        [row] = resource_rows(5, [50])
        assert row["depth"] < row["total_gates"] < 1 << 61
        with pytest.raises(sim.ResourceLimitError, match="past the 2\\*\\*61"):
            resource_rows(5, [51])
        # refused from its last n, before a range of 1e12 is listed
        with pytest.raises(sim.ResourceLimitError, match="n=1000000000000 at m=3"):
            resource_rows(3, range(3, 10**12 + 1))
        for m, n, message in ((0, 3, "need m >= 1"), (-1, 3, "need m >= 1"),
                              (3, 0, "at least one estimation qubit")):
            with pytest.raises(ValueError, match=message):
                resource_rows(m, [n])

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="non-empty and increasing"):
            resource_rows(3, range(5, 3), layers=2)

    def test_depth_fit_quality(self):
        rows = resource_rows(3, range(3, 8), layers=2)
        fit = depth_fit(rows)
        assert fit.slope == pytest.approx(1.0, abs=0.1)
        assert fit_r_squared(fit) > 0.999
        assert 2 ** (fit.intercept + fit.slope * 5) == pytest.approx(
            rows[2]["depth"], rel=0.1)


# The Fig. 9 fits (slope, intercept) of the committed linear-encoding error
# sweep, depth table and classical sweep at seed 0, and the rows that the
# crossover table had for them, written with repr: a change that moves any
# cell by one bit fails here by name.
FIG9_FITS = ((-0.6291642052134448, -1.0509782626259454),
             (1.0198567090238466, 9.068546090370686),
             (-0.4983404598639012, -0.3294360721849748))
FIG9_ROWS = [
    (1e-09, 1000.0, 70.58354130951476, 8.718030083056197e-07, 98642.63263260318, 552667.4333367294, 5.602723878985999),
    (1e-09, 1000000.0, 286456863648311.44, 1.4525903739441854e-14, 98642.63263260318, 552.6674333367295, 0.005602723878986),
    (1e-08, 1000.0, 11258711.919573342, 2.2266910463825715e-09, 986426.3263260317, 552667.4333367294, 0.5602723878986),
    (1e-08, 1000000.0, 4.569245528583428e+19, 3.710092703177679e-17, 986426.3263260317, 552.6674333367295, 0.0005602723878986001),
    (1e-07, 1000.0, 1795866171294.7395, 5.687240086125281e-12, 9864263.263260316, 552667.4333367294, 0.056027238789860004),
    (1e-07, 1000000.0, 7.288359034088978e+24, 9.476028557725494e-20, 9864263.263260316, 552.6674333367295, 5.602723878986001e-05),
    (1e-06, 1000.0, 2.8645686364831146e+17, 1.4525903739441854e-14, 98642632.63260317, 552667.4333367294, 0.005602723878986),
    (1e-06, 1000000.0, 1.1625590500113585e+30, 2.420293087283795e-22, 98642632.63260317, 552.6674333367295, 5.602723878986001e-06),
    (1e-05, 1000.0, 4.569245528583428e+22, 3.710092703177679e-17, 986426326.3260318, 552667.4333367294, 0.0005602723878986),
    (1e-05, 1000000.0, 1.8543866163040543e+35, 6.181723274333095e-25, 986426326.3260318, 552.6674333367295, 5.602723878985999e-07),
    (0.0001, 1000.0, 7.288359034088978e+27, 9.476028557725494e-20, 9864263263.260317, 552667.4333367294, 5.602723878986e-05),
    (0.0001, 1000000.0, 2.957914028275765e+40, 1.5788874017451042e-27, 9864263263.260317, 552.6674333367295, 5.602723878986e-08),
]
CROSSOVER_COLUMNS = ["gate_time_s", "speedup_factor", "crossover_time_s",
                     "crossover_error", "quantum_time_at_target_s",
                     "classical_time_at_target_s", "advantage_at_target"]


class TestCrossover:
    def test_known_intersection(self):
        # quantum: e = 1e-2 (T/t)^(-2/3) with depth = N (slope 1, intercept 0)
        qfit = ScalingFit(-2 / 3, math.log10(1e-2), [])
        dfit = ScalingFit(1.0, 0.0, [])  # log2 depth = n, i.e. depth = N
        cfit = ScalingFit(-0.5, math.log10(0.5), [])
        tau = 1e-6
        rows = runtime_extrapolate(qfit, dfit, cfit, tau)
        assert [(r["gate_time_s"], r["speedup_factor"]) for r in rows] == [
            (t, s) for t in bench.GATE_TIMES for s in bench.SPEEDUP_FACTORS]
        cq, cc = 1e-2, 0.5
        for row in rows:
            # closed form: equate t*(c_q/e)^{3/2} = tau/s * (c_c/e)^2
            t, s = row["gate_time_s"], row["speedup_factor"]
            log_e = (math.log10(t) - math.log10(tau / s) + 1.5 * math.log10(cq)
                     - 2 * math.log10(cc)) / (1.5 - 2.0)
            e_star = 10 ** log_e
            t_star = t * (cq / e_star) ** 1.5
            assert row["crossover_error"] == pytest.approx(e_star, rel=1e-9)
            assert row["crossover_time_s"] == pytest.approx(t_star, rel=1e-9)

    def test_identical_slopes_no_crossover(self):
        qfit = ScalingFit(-0.5, -1.0, [])
        dfit = ScalingFit(1.0, 0.0, [])
        cfit = ScalingFit(-0.5, 0.0, [])
        rows = runtime_extrapolate(qfit, dfit, cfit, 1e-6)
        assert all(r["crossover_time_s"] == r["crossover_error"] == ""
                   for r in rows)

    def test_ideal_slope_moves_crossovers_earlier(self):
        qfit = ScalingFit(-2 / 3, math.log10(0.2), [])
        dfit = ScalingFit(1.0, math.log2(400), [])
        cfit = ScalingFit(-0.5, math.log10(0.4628), [])
        base = runtime_extrapolate(qfit, dfit, cfit, 3e-7)
        ideal = runtime_extrapolate(replace(qfit, slope=-1.0), dfit, cfit, 3e-7)
        for b, i in zip(base, ideal):
            assert i["crossover_time_s"] < b["crossover_time_s"]
            assert i["quantum_time_at_target_s"] < b["quantum_time_at_target_s"]

    def test_advantage_scales_with_tau(self):
        qfit = ScalingFit(-2 / 3, math.log10(0.2), [])
        dfit = ScalingFit(1.0, math.log2(400), [])
        cfit = ScalingFit(-0.5, math.log10(0.4628), [])
        slow = runtime_extrapolate(qfit, dfit, cfit, 6e-7)[0]
        fast = runtime_extrapolate(qfit, dfit, cfit, 3e-7)[0]
        assert slow["advantage_at_target"] == pytest.approx(
            2 * fast["advantage_at_target"], rel=1e-9)

    def test_fig9_rows_bit_exact(self):
        qfit, dfit, cfit = (ScalingFit(slope, intercept, [])
                            for slope, intercept in FIG9_FITS)
        rows = runtime_extrapolate(qfit, dfit, cfit,
                                   bench.REFERENCE_SECONDS_PER_SAMPLE)
        assert all(list(row) == CROSSOVER_COLUMNS for row in rows)
        assert len(rows) == len(FIG9_ROWS)
        for row, expected in zip(rows, FIG9_ROWS):
            for column, value in zip(CROSSOVER_COLUMNS, expected):
                assert row[column] == value, (column, row["gate_time_s"],
                                              row["speedup_factor"])


def test_time_per_sample_positive_and_stable():
    a = time_per_sample(seed=0)
    b = time_per_sample(seed=1)
    assert a > 0 and b > 0
    assert 0.2 < a / b < 5.0


def test_passes_load_no_idle_modules(tmp_path):
    # none of these computes anything in the timing, the classical sweep or
    # a run without a scenario file; together they held about 2 MB of the
    # estimates pass's peak
    params = replace(econ.DEFAULT_STRESS, alpha_price=4e-5, shock_a=3.0,
                     shock_b=7.0)
    path = tmp_path / "scenario.ini"
    write_stress_config(path, params)
    src = Path(__file__).resolve().parents[1] / "src"
    code = """if True:
        import dataclasses, json, sys
        from qmcecon import bench, cli, econ
        bench.time_per_sample(seed=0)
        bench.error_sweep(bench.SweepSpec("neoclassical", "classical",
                                          [100, 1000], repeats=2))
        print(json.dumps([name for name in ("numpy.ma", "concurrent.futures",
                                            "logging", "configparser")
                          if name in sys.modules]))
        print(json.dumps(dataclasses.asdict(econ.load_stress_config(sys.argv[1]))))
    """
    proc = subprocess.run([sys.executable, "-c", code, str(path)],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(src)})
    assert proc.returncode == 0, proc.stderr
    loaded, read = proc.stdout.splitlines()
    assert json.loads(loaded) == []
    assert json.loads(read) == json.loads(json.dumps(asdict(params)))
