import math
import sys
from dataclasses import replace

import numpy as np
import pytest

from qmcecon import bench, econ
from qmcecon.bench import (
    ScalingFit,
    SweepSpec,
    _bench_ansatz,
    crossover_rows,
    depth_fit,
    error_sweep,
    loglog_fit,
    qmc_resource_report,
    resource_rows,
    runtime_extrapolate,
    time_per_sample,
)
from qmcecon.circuits import count_resources, decompose
from qmcecon.distributions import discretize_normal
from qmcecon.engine import (LinearRParams, QMCConfig, assemble_f, normalize_rv,
                            phase_estimation)

from util import fit_r_squared


def _benchmark_f(m, n, layers):
    """The F circuit that ``qmc_resource_report`` counts, built by hand."""
    dist = discretize_normal(m, 1.0, econ.BENCH_SIGMA, 0.94, 1.06)
    rv = normalize_rv(econ.BENCH_C1 + econ.BENCH_C2 * dist.grid)
    config = QMCConfig(dims=1, m=m, n=n, r_mode="linear", a_mode="trained_ansatz")
    linear = LinearRParams.for_oracle_budget(m, n, increasing=False)
    return assemble_f(config, [dist], rv, _bench_ansatz(m, layers), linear)


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

    def test_jobs_preserve_order(self):
        for spec in (SweepSpec("simple", "qmc_exact", [3, 4, 5], m=3),
                     SweepSpec("stress", "classical", [10, 100, 1000],
                               repeats=3, seed=2)):
            seq = error_sweep(spec, jobs=1)
            par = error_sweep(spec, jobs=3)
            assert [r["error"] for r in seq] == [r["error"] for r in par]
            assert [r["N"] for r in seq] == [r["N"] for r in par]


def _serial_rows(spec):
    """The classical rows of ``spec`` from a plain loop over its repeats."""
    w, rows = spec.workload, []
    for n_samples in spec.range:
        errors = [econ.classical_mc(w.sampler, w.f, n_samples,
                                    seed=spec.seed + 7919 * rep,
                                    oracle=w.mean).abs_error
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


@pytest.mark.parametrize("cpus,cap_buffers,buffers", [(4, 1, 1), (4, 2, 2),
                                                      (4, 9, 4), (1, 9, 1)])
def test_classical_workers_fit_values_cap(monkeypatch, cpus, cap_buffers,
                                          buffers):
    n_samples = 1000
    spec = SweepSpec("neoclassical", "classical", [n_samples], repeats=7, seed=4)
    expected = _serial_rows(spec)
    seen = set()
    classical_mc = econ.classical_mc

    def recording_mc(*args, out=None, **kwargs):
        seen.add(id(out))
        return classical_mc(*args, out=out, **kwargs)

    monkeypatch.setattr(bench, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(econ, "CLASSICAL_VALUES_CAP", cap_buffers * 8 * n_samples)
    monkeypatch.setattr(econ, "classical_mc", recording_mc)
    rows = error_sweep(spec)
    assert len(seen) == buffers
    assert _without_wall_time(rows) == expected


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
        # the composed count against the flat lowering of phase_estimation
        cases = [(3, 2, n) for n in range(3, 8)] + [(7, 10, n) for n in range(3, 7)]
        for m, layers, n in cases:
            circuit = phase_estimation(_benchmark_f(m, n, layers), n)
            # m+1 system wires: the controlled MCX has m+1 controls, m-1 work wires
            work = range(circuit.num_qubits, circuit.num_qubits + m - 1)
            direct = count_resources(decompose(circuit, work))
            assert qmc_resource_report(m, n, layers) == direct, (m, layers, n)

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


class TestCrossover:
    def test_known_intersection(self):
        # quantum: e = 1e-2 (T/t)^(-2/3) with depth = N (slope 1, intercept 0)
        qfit = ScalingFit(-2 / 3, math.log10(1e-2), [])
        dfit = ScalingFit(1.0, 0.0, [])  # log2 depth = n, i.e. depth = N
        cfit = ScalingFit(-0.5, math.log10(0.5), [])
        tau = 1e-6
        row = runtime_extrapolate(qfit, dfit, cfit, tau, gate_times=(1e-9,),
                                  speedup_factors=(1e3,))[0]
        # closed form: equate t*(c_q/e)^{3/2} = tau/s * (c_c/e)^2
        t, s, cq, cc = 1e-9, 1e3, 1e-2, 0.5
        log_e = (math.log10(t) - math.log10(tau / s) + 1.5 * math.log10(cq)
                 - 2 * math.log10(cc)) / (1.5 - 2.0)
        e_star = 10 ** log_e
        t_star = t * (cq / e_star) ** 1.5
        assert row.crossover_error == pytest.approx(e_star, rel=1e-9)
        assert row.crossover_time == pytest.approx(t_star, rel=1e-9)

    def test_identical_slopes_no_crossover(self):
        qfit = ScalingFit(-0.5, -1.0, [])
        dfit = ScalingFit(1.0, 0.0, [])
        cfit = ScalingFit(-0.5, 0.0, [])
        table = runtime_extrapolate(qfit, dfit, cfit, 1e-6,
                                    gate_times=(1e-9,), speedup_factors=(1e3,))
        assert table[0].crossover_time is None
        rows = crossover_rows(table)
        assert rows[0]["crossover_time_s"] == ""

    def test_ideal_slope_moves_crossovers_earlier(self):
        qfit = ScalingFit(-2 / 3, math.log10(0.2), [])
        dfit = ScalingFit(1.0, math.log2(400), [])
        cfit = ScalingFit(-0.5, math.log10(0.4628), [])
        base = runtime_extrapolate(qfit, dfit, cfit, 3e-7)
        ideal = runtime_extrapolate(replace(qfit, slope=-1.0), dfit, cfit, 3e-7)
        for b, i in zip(base, ideal):
            assert i.crossover_time < b.crossover_time
            assert i.quantum_time_at_target < b.quantum_time_at_target

    def test_advantage_scales_with_tau(self):
        qfit = ScalingFit(-2 / 3, math.log10(0.2), [])
        dfit = ScalingFit(1.0, math.log2(400), [])
        cfit = ScalingFit(-0.5, math.log10(0.4628), [])
        slow = runtime_extrapolate(qfit, dfit, cfit, 6e-7)[0]
        fast = runtime_extrapolate(qfit, dfit, cfit, 3e-7)[0]
        assert slow.advantage_at_target == pytest.approx(
            2 * fast.advantage_at_target, rel=1e-9)


def test_time_per_sample_positive_and_stable():
    a = time_per_sample(n_samples=2000, repeats=3, seed=0)
    b = time_per_sample(n_samples=2000, repeats=3, seed=1)
    assert a > 0 and b > 0
    assert 0.2 < a / b < 5.0
