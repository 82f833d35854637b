import math

import numpy as np
import pytest

from qmcecon.circuits import count_resources, decompose
from qmcecon.distributions import (
    VariationalAnsatz,
    discretize_beta,
    discretize_normal,
    exact_state_prep,
)
from qmcecon.engine import (
    LinearRParams,
    PhaseEstimate,
    QMCConfig,
    RandomVariableSpec,
    assemble_f,
    build_F,
    build_R_exact,
    build_R_linear,
    build_controlled_Q,
    denormalize_mu,
    extract_theta,
    grover_operator,
    normalize_rv,
    phase_estimation,
    run_qmc,
    spectral_distribution,
    theta_to_mu,
)
from qmcecon.sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    apply_circuit,
    apply_gate,
    dense_unitary,
    init_state,
    probabilities,
)

from util import brute_force_phase_estimation, random_distribution


class TestNormalizeRv:
    def test_affine_map(self):
        rv = normalize_rv([0.0, 5.0, 10.0])
        np.testing.assert_allclose(rv.values, [0.0, 0.5, 1.0])
        assert rv.f_min == 0.0 and rv.f_max == 10.0

    def test_macro_residual_bounds(self):
        grid = np.linspace(0.94, 1.06, 32)
        rv = normalize_rv(30.0 - 29.0 * grid)
        assert rv.f_min == pytest.approx(30 - 29 * 1.06)
        assert rv.f_max == pytest.approx(30 - 29 * 0.94)

    def test_constant_input_degenerates(self):
        rv = normalize_rv([3.0, 3.0, 3.0])
        assert rv.degenerate
        np.testing.assert_allclose(rv.values, 0.5)

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            normalize_rv([1.0, math.inf])


class TestLinearRParams:
    def test_grid_invariants(self):
        p = LinearRParams.for_grid(5, 0.25)
        assert p.a == pytest.approx(2 * 0.25 / 31)
        assert p.b == pytest.approx(-0.25)

    def test_cube_root_identity(self):
        # budget of exactly 3*pi oracle calls puts the rescale range at 1
        n = math.log2(3 * math.pi)
        c_s = (3 * math.pi / 2**n) ** (1 / 3)
        assert c_s == pytest.approx(1.0)

    def test_budget_shrinks_with_n(self):
        c4 = LinearRParams.for_oracle_budget(5, 4).c_s
        c8 = LinearRParams.for_oracle_budget(5, 8).c_s
        assert c8 < c4
        assert c8 == pytest.approx((3 * math.pi / 256) ** (1 / 3))


def basis_state(num_qubits, index):
    st = init_state(num_qubits)
    st.amplitudes[0] = 0.0
    st.amplitudes[index] = 1.0
    return st


class TestRotationEncodings:
    def test_exact_zero_function(self):
        rv = RandomVariableSpec(np.zeros(8), 0.0, 1.0)
        circ = build_R_exact(rv, [0, 1, 2], 3)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] < 1e-15

    def test_exact_one_function(self):
        rv = RandomVariableSpec(np.ones(8), 0.0, 1.0)
        circ = build_R_exact(rv, [0, 1, 2], 3)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] > 1 - 1e-12

    def test_exact_branch_values(self):
        grid = np.linspace(-math.pi, math.pi, 8)
        values = np.sin(grid) ** 2
        rv = RandomVariableSpec(values, 0.0, 1.0)
        circ = build_R_exact(rv, [0, 1, 2], 3)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] == pytest.approx(values[i], abs=1e-10)

    def test_linear_branch_values(self):
        m = 4
        params = LinearRParams.for_grid(m, 0.3)
        circ = build_R_linear(m, params, list(range(m)), m)
        for i in range(1 << m):
            out = apply_circuit(basis_state(m + 1, i << 1), circ)
            expect = math.sin(params.a * i + params.b + math.pi / 4) ** 2
            assert probabilities(out, [m])[1] == pytest.approx(expect, abs=1e-12)

    def test_linear_small_cs_limit(self):
        m = 3
        for c_s in (0.1, 0.01, 0.001):
            params = LinearRParams.for_grid(m, c_s)
            circ = build_R_linear(m, params, list(range(m)), m)
            for i in (0, 3, 7):
                out = apply_circuit(basis_state(m + 1, i << 1), circ)
                p1 = probabilities(out, [m])[1]
                assert abs(p1 - 0.5) <= c_s + 1e-12
                assert p1 == pytest.approx(0.5 + params.a * i + params.b,
                                           abs=2 * c_s**2 + c_s**3)

    def test_size_mismatch(self):
        rv = RandomVariableSpec(np.zeros(8), 0.0, 1.0)
        with pytest.raises(ValueError):
            build_R_exact(rv, [0, 1], 2)


class TestProblemUnitary:
    def test_constant_one_gives_unit_probability(self):
        dist = random_distribution(3, np.random.default_rng(1))
        rv = RandomVariableSpec(np.ones(8), 0.0, 1.0)
        f = build_F(exact_state_prep(dist), build_R_exact(rv, [0, 1, 2], 3))
        chi = apply_circuit(init_state(4), f)
        assert probabilities(chi, [3])[1] == pytest.approx(1.0, abs=1e-12)

    def test_trig_example_value(self):
        dist = discretize_normal(5, 0.0, 1.0, -math.pi, math.pi)
        values = np.sin(dist.grid) ** 2
        rv = RandomVariableSpec(values, 0.0, 1.0)
        f = build_F(exact_state_prep(dist),
                    build_R_exact(rv, list(range(5)), 5))
        chi = apply_circuit(init_state(6), f)
        p1 = probabilities(chi, [5])[1]
        assert p1 == pytest.approx(math.sinh(1) / math.e, abs=5e-4)
        assert p1 == pytest.approx(float(dist.masses @ values), abs=1e-10)

    def test_two_register_product_oracle(self):
        rng = np.random.default_rng(2)
        d1, d2 = random_distribution(2, rng), random_distribution(2, rng)
        values = rng.uniform(0, 1, 16)
        rv = RandomVariableSpec(values, 0.0, 1.0)
        a_all = Circuit(4)
        a_all.extend(exact_state_prep(d1, [0, 1]))
        a_all.extend(exact_state_prep(d2, [2, 3]))
        f = build_F(a_all, build_R_exact(rv, [0, 1, 2, 3], 4))
        chi = apply_circuit(init_state(5), f)
        joint = np.outer(d1.masses, d2.masses).reshape(-1)
        assert probabilities(chi, [4])[1] == pytest.approx(
            float(joint @ values), abs=1e-10)


class TestGroverOperator:
    @pytest.mark.parametrize("m", [2, 3])
    def test_eigenphases_encode_mean(self, m):
        rng = np.random.default_rng(m)
        dist = random_distribution(m, rng)
        rv = normalize_rv(rng.uniform(0, 3, 1 << m))
        f = build_F(exact_state_prep(dist),
                    build_R_exact(rv, list(range(m)), m))
        q = dense_unitary(grover_operator(f))
        mu = float(dist.masses @ rv.values)
        theta = math.acos(1 - 2 * mu) / math.pi
        phases = np.angle(np.linalg.eigvals(q)) / (2 * math.pi)
        nearest = np.min(np.abs(np.abs(phases) - theta))
        assert nearest < 1e-8

    def test_controlled_form(self):
        rng = np.random.default_rng(7)
        dist = random_distribution(2, rng)
        rv = normalize_rv(rng.uniform(0, 1, 4))
        f = build_F(exact_state_prep(dist), build_R_exact(rv, [0, 1], 2))
        q = dense_unitary(grover_operator(f))
        cq = dense_unitary(build_controlled_Q(f, control=3))
        dim = 8
        # control is the least significant wire here
        np.testing.assert_allclose(cq[0::2, 0::2], np.eye(dim), atol=1e-9)
        np.testing.assert_allclose(cq[1::2, 1::2], q, atol=1e-9)
        np.testing.assert_allclose(cq[0::2, 1::2], 0, atol=1e-12)

    def test_control_overlap_rejected(self):
        dist = random_distribution(2, np.random.default_rng(0))
        rv = normalize_rv(np.arange(4.0))
        f = build_F(exact_state_prep(dist), build_R_exact(rv, [0, 1], 2))
        with pytest.raises(ValueError):
            build_controlled_Q(f, control=1)


def small_problem(m, seed=0):
    rng = np.random.default_rng(seed)
    dist = random_distribution(m, rng)
    rv = normalize_rv(rng.uniform(-1, 4, 1 << m))
    return dist, rv


class TestPhaseEstimationCircuit:
    def test_oracle_call_counts(self):
        dist, rv = small_problem(2)
        f = assemble_f(QMCConfig(dims=1, m=2, n=1), [dist], rv)
        block = build_controlled_Q(f, control=3)
        circ1 = phase_estimation(f, 1)
        assert circ1.metadata["oracle_calls"] == 1
        circ6 = phase_estimation(f, 6)
        assert circ6.metadata["oracle_calls"] == 63
        # gate-count identity: F + n Hadamards + blocks + inverse QFT
        iqft_gates = 6 + 15
        expected = len(f.gates) + 6 + 63 * len(block.gates) + iqft_gates
        assert len(circ6.gates) == expected

    def test_work_register_size(self):
        dist, rv = small_problem(3)
        f = assemble_f(QMCConfig(dims=1, m=3, n=2), [dist], rv)
        circ = phase_estimation(f, 2)
        assert circ.num_qubits == 4 + 2
        # system of m+1 wires: controls = est + m register wires -> m-1 work
        widest = max(len(g.controls) for g in circ.gates if g.kind == "mcx")
        assert widest == 4
        with pytest.raises(ValueError, match="needs 2 work wires"):
            decompose(circ, work=[6])
        assert decompose(circ, work=[6, 7]).num_qubits == 4 + 2 + 2

    def test_decomposable_and_countable(self):
        dist, rv = small_problem(2)
        f = assemble_f(QMCConfig(dims=1, m=2, n=2), [dist], rv)
        circ = phase_estimation(f, 2)
        # m+1 = 3 system wires: the controlled MCX has 3 controls, 1 work wire
        rep = count_resources(decompose(circ, work=[circ.num_qubits]))
        assert rep.total_gates > 0
        assert set(rep.counts) <= {"rx", "ry", "rz", "cnot"}


class TestReadout:
    def test_extract_point_masses(self):
        dist = np.zeros(64)
        dist[0] = 1.0
        assert extract_theta(dist, "left") == 0.0
        dist = np.zeros(64)
        dist[32] = 1.0
        assert extract_theta(dist, "left") == 0.5
        assert extract_theta(dist, "right") == 0.5

    def test_tie_breaks_toward_smaller(self):
        dist = np.zeros(16)
        dist[3] = 0.5
        dist[5] = 0.5
        assert extract_theta(dist, "left") == 3 / 16

    def test_right_side(self):
        dist = np.zeros(16)
        dist[3] = 0.4
        dist[13] = 0.6
        assert extract_theta(dist, "right") == 13 / 16

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            extract_theta(np.full(8, 0.2), "left")
        dist = np.zeros(8)
        dist[0] = 1.0
        with pytest.raises(ValueError):
            extract_theta(dist, "middle")

    def test_theta_to_mu(self):
        assert theta_to_mu(0.0) == 0.0
        assert theta_to_mu(0.5) == pytest.approx(0.5)
        assert theta_to_mu(1.0) == pytest.approx(1.0)
        assert theta_to_mu(0.457) == pytest.approx(0.4327, abs=5e-4)
        thetas = np.linspace(0, 1, 101)
        mus = [theta_to_mu(t) for t in thetas]
        assert np.all(np.diff(mus) > 0)
        with pytest.raises(ValueError):
            theta_to_mu(1.5)

    def test_denormalize_endpoints(self):
        rv = normalize_rv([2.0, 5.0, 8.0])
        assert denormalize_mu(0.0, rv) == 2.0
        assert denormalize_mu(1.0, rv) == 8.0
        assert denormalize_mu(0.25, rv) == pytest.approx(3.5)

    def test_denormalize_degenerate(self):
        rv = normalize_rv([4.0, 4.0])
        assert denormalize_mu(0.3, rv) == 4.0

    def test_denormalize_linear_inversion(self):
        # decreasing variable: recovered value interpolates endpoint originals
        values = 30.0 - 29.0 * np.linspace(0.94, 1.06, 8)
        rv = normalize_rv(values)
        linear = LinearRParams.for_grid(3, 0.2, increasing=False)
        mu = denormalize_mu(0.5, rv, linear)  # encoded mean 0 -> grid middle
        assert mu == pytest.approx(0.5 * (values[0] + values[-1]))
        mu_lo = denormalize_mu(0.5 - 0.2, rv, linear)  # mean_f = -c_s -> u=...
        assert mu_lo == pytest.approx(values[-1])


class TestFullPipeline:
    @pytest.mark.parametrize("m,n", [(2, 3), (3, 4), (2, 5)])
    def test_circuit_matches_brute_force(self, m, n):
        dist, rv = small_problem(m, seed=10 * m + n)
        config = QMCConfig(dims=1, m=m, n=n, method="circuit")
        res = run_qmc(config, [dist], rv)
        f = assemble_f(config, [dist], rv)
        q = dense_unitary(grover_operator(f))
        chi = dense_unitary(f)[:, 0]
        oracle = brute_force_phase_estimation(q, chi, n)
        np.testing.assert_allclose(res.distribution, oracle, atol=1e-10)

    @pytest.mark.parametrize("case", ["exact", "two_registers", "linear",
                                      "trained_ansatz"])
    def test_methods_agree(self, case):
        # every F shape the production path sees, against the circuit reference
        rng = np.random.default_rng(4)
        dims, m = (2, 2) if case == "two_registers" else (1, 3)
        options = dict(dims=dims, m=m)
        dists = [random_distribution(m, rng) for _ in range(dims)]
        rv = normalize_rv(rng.uniform(-1, 4, 1 << (dims * m)))
        ansatz = None
        if case == "linear":
            rv = normalize_rv(np.linspace(2.0, -1.0, 8))
            options["r_mode"] = "linear"
        elif case == "trained_ansatz":
            ansatz = VariationalAnsatz(3, 2, rng.uniform(-math.pi, math.pi, 18))
            options["a_mode"] = "trained_ansatz"
        results = {method: run_qmc(QMCConfig(n=4, method=method, **options),
                                   dists, rv, ansatz=ansatz)
                   for method in ("circuit", "auto")}
        np.testing.assert_allclose(results["circuit"].distribution,
                                   results["auto"].distribution, atol=1e-12)
        assert results["circuit"].p1 == pytest.approx(results["auto"].p1, abs=1e-12)

    def test_readout_symmetry(self):
        dist, rv = small_problem(3, seed=9)
        res = run_qmc(QMCConfig(dims=1, m=3, n=5, method="circuit"), [dist], rv)
        p = res.distribution
        np.testing.assert_allclose(p[1:], p[1:][::-1], atol=1e-9)

    def test_estimate_converges_to_encoded_mean(self):
        dist, rv = small_problem(3, seed=6)
        mu_true = float(dist.masses @ rv.original_values())
        # the caller knows which half of [0, 1] the phase lives in
        side = "left" if float(dist.masses @ rv.values) <= 0.5 else "right"
        config = QMCConfig(dims=1, m=3, n=11, theta_side=side)
        res = run_qmc(config, [dist], rv)
        assert abs(res.mu - mu_true) < 2e-3 * (rv.f_max - rv.f_min)

    def test_distribution_sums_to_one(self):
        dist, rv = small_problem(2, seed=3)
        for n in (2, 6, 16):
            res = run_qmc(QMCConfig(dims=1, m=2, n=n, method="auto"),
                          [dist], rv)
            assert abs(res.distribution.sum() - 1.0) < 1e-10

    def test_phase_estimate_validates(self):
        with pytest.raises(ValueError):
            PhaseEstimate(np.full(4, 0.3), 0.0, 0.0, 0.0, 2, 3)

    def test_spectral_edge_cases(self):
        for p1 in (0.0, 1.0):
            d = spectral_distribution(p1, 4)
            assert abs(d.sum() - 1.0) < 1e-12

    def test_linear_mode_needs_linear_variable(self):
        rng = np.random.default_rng(1)
        dist = random_distribution(3, rng)
        rv = normalize_rv(rng.uniform(0, 1, 8))  # not linear on the grid
        with pytest.raises(ValueError, match="linear"):
            run_qmc(QMCConfig(dims=1, m=3, n=4, r_mode="linear"), [dist], rv)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QMCConfig(r_mode="linear", dims=2)
        with pytest.raises(ValueError):
            QMCConfig(r_mode="weird")
        with pytest.raises(ValueError, match="method"):
            QMCConfig(method="typo")
        # fixed caps: 22 qubits of F, 25 estimation qubits
        QMCConfig(dims=1, m=21, n=25)
        with pytest.raises(ResourceLimitError, match="F register needs 23"):
            QMCConfig(dims=2, m=11)
        with pytest.raises(ResourceLimitError, match="estimation register needs 26"):
            QMCConfig(n=26)
