import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qmcecon import distributions, econ, sim
from qmcecon.circuits import decompose
from qmcecon.distributions import (
    APPENDIX_SCHEDULE,
    DiscretizedDistribution,
    TrainingSchedule,
    VariationalAnsatz,
    _cnot_chain,
    _cost_and_gradient,
    _rotation_gradient,
    _trace_table,
    ansatz_circuit,
    ansatz_cost,
    ansatz_probs,
    discretize_beta,
    discretize_normal,
    exact_state_prep,
    load_ansatz,
    save_ansatz,
    train_ansatz,
)
from qmcecon.sim import (
    Circuit,
    ResourceLimitError,
    StateVector,
    apply_circuit,
    init_state,
    probabilities,
)

from util import (
    generator_gradient,
    partial_trace_overlaps,
    random_distribution,
)


def uniform_dist(m):
    return DiscretizedDistribution(m, np.linspace(0, 1, 1 << m),
                                   np.full(1 << m, 1.0 / (1 << m)))


class TestDiscretizeNormal:
    def test_symmetric_grid_masses(self):
        d = discretize_normal(5, 0.0, 1.0, -math.pi, math.pi)
        np.testing.assert_allclose(d.masses, d.masses[::-1], atol=1e-14)

    def test_symmetric_grid_mean(self):
        d = discretize_normal(5, 1.0, 0.02, 0.94, 1.06)
        assert abs(d.mean() - 1.0) < 1e-12

    def test_grid_includes_endpoints(self):
        d = discretize_normal(4, 1.0, 0.02, 0.94, 1.06)
        assert d.grid[0] == 0.94 and d.grid[-1] == 1.06

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            discretize_normal(3, 0.0, -1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            discretize_normal(3, 0.0, 1.0, 1.0, 0.0)


class TestDiscretizeBeta:
    def test_mean_near_analytic(self):
        d = discretize_beta(5, 2.0, 10.0)
        assert abs(d.mean() - 1.0 / 6.0) < 0.01

    def test_flat_beta_is_uniform(self):
        d = discretize_beta(4, 1.0, 1.0)
        np.testing.assert_allclose(d.masses, np.full(16, 1 / 16))

    def test_mode_near_analytic(self):
        d = discretize_beta(5, 2.0, 10.0)
        mode = (2.0 - 1.0) / (2.0 + 10.0 - 2.0)
        assert abs(d.grid[np.argmax(d.masses)] - mode) <= 1.0 / 31 + 1e-12

    def test_invalid_shapes(self):
        for a, b in [(0.0, 2.0), (math.nan, 2.0), (math.inf, 2.0), (2.0, math.inf),
                     (2.0, -math.inf)]:
            with pytest.raises(ValueError, match="must be positive and finite"):
                discretize_beta(3, a, b)
        for a, b in [(0.5, 2.0), (2.0, 0.5)]:
            with pytest.raises(ValueError, match="diverges at a grid endpoint"):
                discretize_beta(3, a, b)

    def test_two_point_grid_needs_a_shape_at_most_one(self):
        # the 2-point grid sits on 0 and 1, where Beta(2, 10) has zero density
        with pytest.raises(ValueError) as exc:
            discretize_beta(1, 2.0, 10.0)
        assert str(exc.value) == (
            "Beta(2.0,10.0) has zero density at both points of the 2**1-point "
            "grid {0, 1}; shapes both above 1 need m >= 2")
        np.testing.assert_array_equal(discretize_beta(1, 1.0, 3.0).masses, [1, 0])

    @pytest.mark.parametrize("m", [0, -1])
    def test_invalid_m(self, m):
        with pytest.raises(ValueError, match=f"need m >= 1 grid qubits, got {m}"):
            discretize_beta(m, 2.0, 10.0)

    def test_large_shapes_where_exp_underflows(self):
        # exp of the log-density is 0 at every point of these grids
        d = discretize_beta(2, 1e6, 1e6)
        np.testing.assert_allclose(d.masses, [0.0, 0.5, 0.5, 0.0], rtol=0, atol=1e-9)
        d = discretize_beta(5, 1e6, 1e6)
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.isfinite(d.masses))

    def test_shapes_where_the_normaliser_overflows(self):
        # lgamma(1e306) overflows; the grid's largest log-density takes all
        np.testing.assert_array_equal(discretize_beta(3, 1e306, 2.0).masses,
                                      [0, 0, 0, 0, 0, 0, 1, 0])
        np.testing.assert_array_equal(discretize_beta(3, 2.0, 1e306).masses,
                                      [0, 1, 0, 0, 0, 0, 0, 0])
        with pytest.raises(ValueError, match="diverges at a grid endpoint"):
            discretize_beta(3, 0.5, 1e306)

    @pytest.mark.parametrize("a,b", [(2, 10), (1, 1), (1, 3), (3, 1), (2.5, 7.3),
                                     (50, 50), (600, 600)])
    def test_masses_match_scipy(self, a, b):
        stats = pytest.importorskip("scipy.stats")
        for m in range(1, 11):
            grid = np.linspace(0.0, 1.0, 1 << m)
            density = stats.beta.pdf(grid, a, b)
            if density.sum() == 0:
                # m = 1 keeps only the endpoints, where a, b > 1 give 0
                with pytest.raises(ValueError, match="zero density at both points"):
                    discretize_beta(m, a, b)
                continue
            d = discretize_beta(m, a, b)
            assert np.all(np.isfinite(d.masses))
            np.testing.assert_allclose(d.masses, density / density.sum(),
                                       rtol=1e-12, atol=0)


class TestExactStatePrep:
    def test_point_mass(self):
        masses = np.zeros(8)
        masses[0] = 1.0
        d = DiscretizedDistribution(3, np.linspace(0, 1, 8), masses)
        st = apply_circuit(init_state(3), exact_state_prep(d))
        np.testing.assert_allclose(st.amplitudes, np.eye(8)[0], atol=1e-12)

    def test_uniform_matches_hadamards(self):
        d = uniform_dist(3)
        st = apply_circuit(init_state(3), exact_state_prep(d))
        h_all = Circuit(3).h(0).h(1).h(2)
        ref = apply_circuit(init_state(3), h_all)
        np.testing.assert_allclose(st.amplitudes, ref.amplitudes, atol=1e-12)

    def test_normal_masses(self):
        d = discretize_normal(5, 0.0, 1.0, -math.pi, math.pi)
        st = apply_circuit(init_state(5), exact_state_prep(d))
        np.testing.assert_allclose(probabilities(st), d.masses, atol=1e-12)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_native_levels_match_lowering(self, m):
        # one multiplexor per level; simulating its RY/CNOT lowering instead
        # gives the same amplitudes
        d = random_distribution(m, np.random.default_rng(m))
        circ = exact_state_prep(d)
        assert [(g.kind, len(g.controls)) for g in circ.gates] == [
            ("ucry", k) for k in range(m)]
        lowered = decompose(circ)
        assert len(lowered) == 3 * ((1 << m) - 1) - 2 * m
        native = apply_circuit(init_state(m), circ).amplitudes
        expanded = apply_circuit(init_state(m), lowered).amplitudes
        np.testing.assert_allclose(native, expanded, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(native) ** 2, d.masses, rtol=0,
                                   atol=1e-15)

    def test_amplitudes_real_nonnegative(self):
        rng = np.random.default_rng(5)
        for _ in range(5):
            d = random_distribution(4, rng)
            st = apply_circuit(init_state(4), exact_state_prep(d))
            assert np.max(np.abs(st.amplitudes.imag)) == 0.0
            assert st.amplitudes.real.min() > -1e-15


class TestAnsatz:
    def test_zero_params_identity(self):
        ans = VariationalAnsatz(3, 1, np.zeros(9))
        st = apply_circuit(init_state(3), ansatz_circuit(ans))
        np.testing.assert_allclose(st.amplitudes, np.eye(8)[0], atol=1e-12)

    def test_param_counts(self):
        assert VariationalAnsatz.num_params(5, 10) == 150
        assert VariationalAnsatz.num_params(5, 5) == 75

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            VariationalAnsatz(5, 10, np.zeros(149))

    def test_cost_zero_on_match(self):
        # all-zero parameters produce a point mass at index 0
        masses = np.zeros(8)
        masses[0] = 1.0
        target = DiscretizedDistribution(3, np.linspace(0, 1, 8), masses)
        ans = VariationalAnsatz(3, 1, np.zeros(9))
        assert ansatz_cost(ans, target) < 1e-15

    def test_cost_point_mass_formula(self):
        masses = np.zeros(8)
        masses[5] = 1.0
        target = DiscretizedDistribution(3, np.linspace(0, 1, 8), masses)
        ans = VariationalAnsatz(3, 1, np.zeros(9))
        assert ansatz_cost(ans, target) == pytest.approx(2 * (1 - masses[0]))

    def test_cost_dimension_mismatch(self):
        ans = VariationalAnsatz(3, 1, np.zeros(9))
        with pytest.raises(ValueError):
            ansatz_cost(ans, uniform_dist(4))

    def test_cost_nonnegative(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            ans = VariationalAnsatz(3, 2, rng.uniform(-np.pi, np.pi, 18))
            assert ansatz_cost(ans, random_distribution(3, rng)) >= 0.0

    def test_batched_probs_match_simulator(self):
        rng = np.random.default_rng(9)
        # m=1 has no CNOT; from m=3 on the chain's permutation is not its
        # own inverse; m=7 and m=11 have several chunks, the last partial
        for m, layers in [(1, 4), (4, 3), (5, 10), (7, 2), (11, 1)]:
            ans = VariationalAnsatz(m, layers, rng.uniform(
                -np.pi, np.pi, VariationalAnsatz.num_params(m, layers)))
            st = apply_circuit(init_state(m), ansatz_circuit(ans))
            np.testing.assert_allclose(ansatz_probs(ans), probabilities(st),
                                       rtol=0, atol=1e-12)


def parameter_shift_gradient(ansatz, target):
    """dC/d theta_j from probabilities at theta_j +- pi/2 (Schuld et al. 2019)."""
    sign = np.sign(ansatz_probs(ansatz) - target.masses)
    grad = np.empty(ansatz.params.size)
    for j in range(ansatz.params.size):
        shifted = []
        for shift in (math.pi / 2, -math.pi / 2):
            params = ansatz.params.copy()
            params[j] += shift
            shifted.append(ansatz_probs(
                VariationalAnsatz(ansatz.m, ansatz.layers, params)))
        grad[j] = 0.5 * (shifted[0] - shifted[1]) @ sign
    return grad


class TestFusedKernel:
    # from m=6 on the register has more than one chunk, the last one partial
    @pytest.mark.parametrize("m,layers", [(1, 3), (2, 1), (3, 2), (5, 10), (6, 4),
                                          (7, 2), (11, 1)])
    def test_gradient_matches_parameter_shift(self, m, layers):
        rng = np.random.default_rng(100 * m + layers)
        target = random_distribution(m, rng)
        ans = VariationalAnsatz(m, layers, rng.uniform(
            -math.pi, math.pi, VariationalAnsatz.num_params(m, layers)))
        cost, grad = _cost_and_gradient(m, layers, ans.params, target.masses)
        assert cost == pytest.approx(ansatz_cost(ans, target), abs=1e-12)
        np.testing.assert_allclose(grad, parameter_shift_gradient(ans, target),
                                   rtol=0, atol=1e-12)

    @pytest.mark.parametrize("m", [3, 4, 6])
    def test_cnot_chain_gather(self, m):
        # from m = 3 on the chain is not its own inverse, so a gather that
        # should be a scatter shows here
        rng = np.random.default_rng(m)
        amps = rng.normal(size=1 << m) + 1j * rng.normal(size=1 << m)
        chain = Circuit(m)
        for q in range(m - 1):
            chain.cnot(q, q + 1)
        st = apply_circuit(StateVector(m, amps.copy()), chain)
        gather, scatter = _cnot_chain(m)
        np.testing.assert_array_equal(amps[gather], st.amplitudes)
        np.testing.assert_array_equal(st.amplitudes[scatter], amps)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_gathered_traces_match_einsum(self, k):
        rng = np.random.default_rng(k)
        blocks = (rng.normal(size=(3, 1 << k, 1 << k))
                  + 1j * rng.normal(size=(3, 1 << k, 1 << k)))
        gathered = blocks.reshape(3, -1).take(_trace_table(k), axis=1).sum(1)
        np.testing.assert_allclose(gathered, partial_trace_overlaps(blocks),
                                   rtol=0, atol=1e-13)

    @pytest.mark.parametrize("layers,m", [(1, 1), (10, 5), (3, 12)])
    def test_closed_form_gradient_matches_generators(self, layers, m):
        rng = np.random.default_rng(10 * m + layers)
        theta = rng.uniform(-math.pi, math.pi, (layers, m, 3))
        overlap = (rng.normal(size=(layers, m, 2, 2))
                   + 1j * rng.normal(size=(layers, m, 2, 2)))
        np.testing.assert_allclose(_rotation_gradient(theta, overlap),
                                   generator_gradient(theta, overlap),
                                   rtol=0, atol=1e-15)

    def test_gradient_memory_stays_near_the_stored_states(self):
        # 5 stored states of 2**12 amplitudes are 0.3 MB; a batch of the
        # 2P+1 parameter-shift states would take about 48 MB
        rng = np.random.default_rng(12)
        params = rng.uniform(-math.pi, math.pi, VariationalAnsatz.num_params(12, 4))
        masses = random_distribution(12, rng).masses
        _cost_and_gradient(12, 4, params, masses)
        tracemalloc.start()
        try:
            _cost_and_gradient(12, 4, params, masses)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 << 20

    def test_chunk_blocks_over_memory_refused_before_training(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("an epoch ran before the blocks were checked")

        monkeypatch.setattr(distributions, "_cost_and_gradient", refuse)
        # 10 layers of one 32x32 chunk matrix and one overlap block: 327680 B,
        # far above the 8192 B of 16 statevectors; with one epoch's 8 B and
        # 1 MiB, rounded up to 32 B, the training counts 1384480 B
        needed = 16 * 16 * 32 + 2 * 10 * 16 * 32 * 32 + 8 + (1 << 20) + 24
        monkeypatch.setattr(sim, "MEMORY_BUDGET", needed - 1)
        with pytest.raises(ResourceLimitError,
                           match="training m=5 with 10 layers needs 1384480 bytes"):
            train_ansatz(uniform_dist(5), 10, TrainingSchedule([(1, 0.1)]))
        monkeypatch.setattr(sim, "MEMORY_BUDGET", needed)
        with pytest.raises(AssertionError, match="an epoch ran"):
            train_ansatz(uniform_dist(5), 10, TrainingSchedule([(1, 0.1)]))


UNIFORM_SCHEDULE = TrainingSchedule(
    [(250, 0.05), (100, 0.005), (50, 5e-4), (50, 5e-5), (25, 5e-6), (25, 5e-7)],
    seed=0,
)


class TestTraining:
    def test_uniform_target_converges(self):
        ansatz, trace = train_ansatz(uniform_dist(3), 1, UNIFORM_SCHEDULE)
        assert trace.size == 500
        assert trace[-1] < 1e-6

    def test_deterministic_given_seed(self):
        sched = TrainingSchedule([(60, 0.01)], seed=3)
        a1, t1 = train_ansatz(uniform_dist(3), 2, sched)
        a2, t2 = train_ansatz(uniform_dist(3), 2, sched)
        assert np.array_equal(t1, t2)
        assert np.array_equal(a1.params, a2.params)

    def test_moving_average_non_increasing(self):
        target = discretize_normal(4, 1.0, 0.02, 0.94, 1.06)
        _, trace = train_ansatz(target, 4, TrainingSchedule(
            [(300, 0.01), (200, 0.001)], seed=1))
        avg = np.convolve(trace, np.ones(100) / 100, mode="valid")
        assert np.all(np.diff(avg) <= 1e-9)

    def test_wide_normal_five_layers(self):
        target = discretize_normal(5, 0.0, 1.0, -math.pi, math.pi)
        sched = TrainingSchedule([(1000, 0.05), (1000, 0.01), (1000, 0.001)],
                                 seed=0)
        _, trace = train_ansatz(target, 5, sched)
        assert trace[-1] < 1e-3

    # perfbench's ansatz-train part: the Fig. 11 grid, 10 layers, 400 epochs
    # at lr 0.01, against the final costs of the seed code it records
    @pytest.mark.parametrize("seed", [1, 4])
    def test_final_cost_matches_perfbench_reference(self, seed):
        reference = json.loads((Path(__file__).resolve().parent.parent
                                / "perfbench" / "reference.json").read_text())
        want = reference["training_final_cost"]["400"][str(seed)]
        _, trace = train_ansatz(econ.neoclassical_shock_grid(5, symmetric=True),
                                10, TrainingSchedule([(400, 0.01)], seed=seed))
        assert trace[-1] == pytest.approx(want, rel=1e-12, abs=0)

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(21)
        target = random_distribution(3, rng)
        for _ in range(3):
            ans = VariationalAnsatz(
                3, 2, rng.uniform(-math.pi, math.pi, 18))
            _, grad = _cost_and_gradient(3, 2, ans.params, target.masses)
            h = 1e-6
            for j in range(0, 18, 5):
                plus = ans.params.copy()
                plus[j] += h
                minus = ans.params.copy()
                minus[j] -= h
                fd = (ansatz_cost(VariationalAnsatz(3, 2, plus), target)
                      - ansatz_cost(VariationalAnsatz(3, 2, minus), target)) / (2 * h)
                assert abs(grad[j] - fd) < 1e-5

    def test_schedule_validation(self):
        with pytest.raises(ValueError):
            TrainingSchedule([(0, 0.1)])
        for lr in (math.nan, math.inf, -0.1):
            with pytest.raises(ValueError):
                TrainingSchedule([(5, lr)])
        with pytest.raises(ValueError):
            train_ansatz(uniform_dist(2), 0, APPENDIX_SCHEDULE)


class TestPersistence:
    def test_roundtrip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(2)
        ans = VariationalAnsatz(3, 2, rng.uniform(-np.pi, np.pi, 18))
        path = tmp_path / "params.txt"
        save_ansatz(path, ans, seed=7, final_cost=1.5e-4)
        loaded, meta = load_ansatz(path)
        assert np.array_equal(loaded.params, ans.params)
        assert loaded.m == 3 and loaded.layers == 2
        assert meta["seed"] == "7"

    def test_reject_non_parameter_file(self, tmp_path):
        path = tmp_path / "junk.txt"
        path.write_text("0.5\n0.25\n")
        with pytest.raises(ValueError):
            load_ansatz(path)
