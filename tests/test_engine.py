import math
from dataclasses import replace

import numpy as np
import pytest

from qmcecon import econ
from qmcecon.circuits import count_resources, decompose, inverse_qft
from qmcecon.distributions import (
    VariationalAnsatz,
    ansatz_circuit,
    ansatz_probs,
    discretize_normal,
    exact_state_prep,
)
from qmcecon.engine import (
    LinearRParams,
    PhaseEstimate,
    QMCConfig,
    RandomVariableSpec,
    assemble_f,
    build_R_exact,
    build_R_linear,
    denormalize_mu,
    extract_theta,
    grover_operator,
    normalize_rv,
    run_qmc,
    spectral_distribution,
    spectral_theta_hat,
    theta_to_mu,
)
from qmcecon.sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    apply_circuit,
    dense_unitary,
    init_state,
    probabilities,
)

from util import (brute_force_phase_estimation, flat_phase_estimation,
                  random_distribution)


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
        assert rv.f_min == rv.f_max == 3.0
        assert np.all(rv.values == 0.5)
        assert denormalize_mu(0.5, rv) == 3.0

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
        rv = normalize_rv(np.arange(32.0))
        c4 = LinearRParams.for_oracle_budget(rv, 4).c_s
        c8 = LinearRParams.for_oracle_budget(rv, 8).c_s
        assert c8 < c4
        assert c8 == pytest.approx((3 * math.pi / 256) ** (1 / 3))

    @pytest.mark.parametrize("increasing", [True, False])
    def test_budget_reads_size_and_direction_from_variable(self, increasing):
        ramp = np.linspace(-1.0, 2.0, 32)
        rv = normalize_rv(ramp if increasing else ramp[::-1])
        c_s = (3.0 * math.pi / 2**6) ** (1.0 / 3.0)
        assert (LinearRParams.for_oracle_budget(rv, 6)
                == LinearRParams.for_grid(5, c_s, increasing))


def basis_state(num_qubits, index):
    st = init_state(num_qubits)
    st.amplitudes[0] = 0.0
    st.amplitudes[index] = 1.0
    return st


class TestRotationEncodings:
    def test_exact_zero_function(self):
        rv = RandomVariableSpec(np.zeros(8), 0.0, 1.0)
        circ = build_R_exact(rv)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] < 1e-15

    def test_exact_one_function(self):
        rv = RandomVariableSpec(np.ones(8), 0.0, 1.0)
        circ = build_R_exact(rv)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] > 1 - 1e-12

    def test_exact_branch_values(self):
        grid = np.linspace(-math.pi, math.pi, 8)
        values = np.sin(grid) ** 2
        rv = RandomVariableSpec(values, 0.0, 1.0)
        circ = build_R_exact(rv)
        for i in range(8):
            out = apply_circuit(basis_state(4, i << 1), circ)
            assert probabilities(out, [3])[1] == pytest.approx(values[i], abs=1e-10)

    def test_linear_branch_values(self):
        m = 4
        params = LinearRParams.for_grid(m, 0.3)
        circ = build_R_linear(m, params)
        for i in range(1 << m):
            out = apply_circuit(basis_state(m + 1, i << 1), circ)
            expect = math.sin(params.a * i + params.b + math.pi / 4) ** 2
            assert probabilities(out, [m])[1] == pytest.approx(expect, abs=1e-12)

    def test_linear_small_cs_limit(self):
        m = 3
        for c_s in (0.1, 0.01, 0.001):
            params = LinearRParams.for_grid(m, c_s)
            circ = build_R_linear(m, params)
            for i in (0, 3, 7):
                out = apply_circuit(basis_state(m + 1, i << 1), circ)
                p1 = probabilities(out, [m])[1]
                assert abs(p1 - 0.5) <= c_s + 1e-12
                assert p1 == pytest.approx(0.5 + params.a * i + params.b,
                                           abs=2 * c_s**2 + c_s**3)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_exact_native_matches_lowering(self, m):
        # the register in a uniform superposition (RY, which lowers to
        # itself) reaches every row of the multiplexor at once
        rng = np.random.default_rng(60 + m)
        rv = normalize_rv(rng.uniform(-1, 2, 1 << m))
        circ = Circuit(m + 1)
        for q in range(m):
            circ.ry(q, math.pi / 2)
        circ.extend(build_R_exact(rv))
        assert [g.kind for g in circ.gates[m:]] == ["ucry"]
        native = apply_circuit(init_state(m + 1), circ).amplitudes
        lowered = apply_circuit(init_state(m + 1), decompose(circ)).amplitudes
        np.testing.assert_allclose(native, lowered, rtol=0, atol=1e-15)
        np.testing.assert_allclose(np.abs(native[1::2]) ** 2 * (1 << m),
                                   rv.values, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("size", [1, 3, 6])
    def test_exact_needs_power_of_two_values(self, size):
        # the register size comes from the values, so they must be 2**k, k >= 1
        rv = RandomVariableSpec(np.zeros(size), 0.0, 1.0)
        with pytest.raises(ValueError, match="need 2\\*\\*k values"):
            build_R_exact(rv)

    @pytest.mark.parametrize("k", [1, 3])
    def test_register_follows_from_values(self, k):
        rv = RandomVariableSpec(np.zeros(1 << k), 0.0, 1.0)
        [gate] = build_R_exact(rv).gates
        assert gate.controls == tuple(range(k)) and gate.targets == (k,)
        circ = build_R_linear(k, LinearRParams.for_grid(k, 0.1))
        assert circ.num_qubits == k + 1
        assert [g.controls for g in circ.gates if g.kind == "cry"] == [
            (q,) for q in range(k)]


class TestProblemUnitary:
    def test_constant_one_gives_unit_probability(self):
        dist = random_distribution(3, np.random.default_rng(1))
        rv = RandomVariableSpec(np.ones(8), 0.0, 1.0)
        f = assemble_f([dist], rv)
        chi = apply_circuit(init_state(4), f)
        assert probabilities(chi, [3])[1] == pytest.approx(1.0, abs=1e-12)

    def test_trig_example_value(self):
        dist = discretize_normal(5, 0.0, 1.0, -math.pi, math.pi)
        values = np.sin(dist.grid) ** 2
        rv = RandomVariableSpec(values, 0.0, 1.0)
        f = assemble_f([dist], rv)
        chi = apply_circuit(init_state(6), f)
        p1 = probabilities(chi, [5])[1]
        assert p1 == pytest.approx(math.sinh(1) / math.e, abs=5e-4)
        assert p1 == pytest.approx(float(dist.masses @ values), abs=1e-10)

    def test_two_register_product_oracle(self):
        rng = np.random.default_rng(2)
        d1, d2 = random_distribution(2, rng), random_distribution(2, rng)
        values = rng.uniform(0, 1, 16)
        rv = RandomVariableSpec(values, 0.0, 1.0)
        f = Circuit(5)
        f.extend(exact_state_prep(d1, [0, 1]))
        f.extend(exact_state_prep(d2, [2, 3]))
        f.extend(build_R_exact(rv))
        chi = apply_circuit(init_state(5), f)
        joint = np.outer(d1.masses, d2.masses).reshape(-1)
        assert probabilities(chi, [4])[1] == pytest.approx(
            float(joint @ values), abs=1e-10)


class TestAssembleF:
    """F's registers, preparation and rotation follow from its inputs."""

    def test_registers_follow_from_dists(self):
        rng = np.random.default_rng(3)
        d1, d2 = random_distribution(2, rng), random_distribution(2, rng)
        rv = normalize_rv(rng.uniform(0, 1, 16))
        f = assemble_f([d1, d2], rv)
        assert f.num_qubits == 5
        assert f.gates == (exact_state_prep(d1, [0, 1]).gates
                           + exact_state_prep(d2, [2, 3]).gates
                           + build_R_exact(rv).gates)
        for size in (8, 32):
            with pytest.raises(ValueError, match="does not fit a 4-qubit register"):
                assemble_f([d1, d2], normalize_rv(rng.uniform(0, 1, size)))
        # the linear cascade too is refused before any gate is built
        with pytest.raises(ValueError, match="does not fit a 2-qubit register"):
            assemble_f([d1], normalize_rv(np.arange(8.0)),
                       linear=LinearRParams.for_grid(3, 0.1))

    def test_mixed_m_rejected(self):
        rng = np.random.default_rng(4)
        dists = [random_distribution(2, rng), random_distribution(3, rng)]
        with pytest.raises(ValueError, match="same m"):
            assemble_f(dists, normalize_rv(rng.uniform(0, 1, 32)))

    @pytest.mark.parametrize("dims", [1, 2])
    def test_ansatz_prepares_every_register(self, dims):
        # the gates of the trained-ansatz mode: the ansatz on each register
        rng = np.random.default_rng(5)
        m = 2
        ansatz = VariationalAnsatz(m, 2, rng.uniform(-math.pi, math.pi, 12))
        dists = [random_distribution(m, rng) for _ in range(dims)]
        rv = normalize_rv(rng.uniform(0, 1, 1 << (dims * m)))
        prepared = [g for j in range(dims)
                    for g in ansatz_circuit(ansatz, range(j * m, (j + 1) * m)).gates]
        assert (assemble_f(dists, rv, ansatz).gates
                == prepared + build_R_exact(rv).gates)

    def test_linear_params_select_the_cascade(self):
        dist = random_distribution(3, np.random.default_rng(6))
        rv = normalize_rv(np.linspace(2.0, -1.0, 8))
        linear = LinearRParams.for_grid(3, 0.2, increasing=False)
        f = assemble_f([dist], rv, linear=linear)
        assert f.gates == (exact_state_prep(dist).gates
                           + build_R_linear(3, linear).gates)

    def test_run_qmc_prepares_with_any_given_ansatz(self):
        rng = np.random.default_rng(7)
        dist, rv = random_distribution(3, rng), normalize_rv(rng.uniform(0, 1, 8))
        ansatz = VariationalAnsatz(3, 1, rng.uniform(-math.pi, math.pi, 9))
        exact = run_qmc(QMCConfig(m=3, n=4), [dist], rv)
        trained = run_qmc(QMCConfig(m=3, n=4), [dist], rv, ansatz=ansatz)
        assert exact.p1 != trained.p1
        assert trained.p1 == pytest.approx(
            float(np.dot(ansatz_probs(ansatz), rv.values)), abs=1e-12)
        with pytest.raises(ValueError, match="expected 2 distributions of m=3"):
            run_qmc(QMCConfig(dims=2, m=3, n=4), [dist], rv)


class TestGroverOperator:
    @pytest.mark.parametrize("m", [2, 3])
    def test_eigenphases_encode_mean(self, m):
        rng = np.random.default_rng(m)
        dist = random_distribution(m, rng)
        rv = normalize_rv(rng.uniform(0, 3, 1 << m))
        f = assemble_f([dist], rv)
        q = dense_unitary(grover_operator(f))
        mu = float(dist.masses @ rv.values)
        theta = math.acos(1 - 2 * mu) / math.pi
        phases = np.angle(np.linalg.eigvals(q)) / (2 * math.pi)
        nearest = np.min(np.abs(np.abs(phases) - theta))
        assert nearest < 1e-8

    def test_controlled_form(self):
        # an exact F, and a trained-ansatz F with the linear cascade
        rng = np.random.default_rng(7)
        dist = random_distribution(2, rng)
        rv = normalize_rv(rng.uniform(0, 1, 4))
        ansatz = VariationalAnsatz(3, 2, rng.uniform(-math.pi, math.pi, 18))
        linear = build_R_linear(3, LinearRParams.for_grid(3, 0.3))
        for f in (assemble_f([dist], rv),
                  Circuit(4).extend(ansatz_circuit(ansatz)).extend(linear)):
            s = f.num_qubits
            q = dense_unitary(grover_operator(f))
            cq = dense_unitary(grover_operator(f, control=s))
            # control is the least significant wire here
            np.testing.assert_allclose(cq[0::2, 0::2], np.eye(1 << s), atol=1e-9)
            np.testing.assert_allclose(cq[1::2, 1::2], q, atol=1e-9)
            np.testing.assert_allclose(cq[0::2, 1::2], 0, atol=1e-12)
            np.testing.assert_allclose(cq[1::2, 0::2], 0, atol=1e-12)

    def test_control_overlap_rejected(self):
        dist = random_distribution(2, np.random.default_rng(0))
        rv = normalize_rv(np.arange(4.0))
        f = assemble_f([dist], rv)
        with pytest.raises(ValueError):
            grover_operator(f, control=1)


def small_problem(m, seed=0):
    rng = np.random.default_rng(seed)
    dist = random_distribution(m, rng)
    rv = normalize_rv(rng.uniform(-1, 4, 1 << m))
    return dist, rv


class TestPhaseEstimationCircuit:
    def test_oracle_call_counts(self):
        dist, rv = small_problem(2)
        f = assemble_f([dist], rv)
        block = grover_operator(f, control=3)
        circ6 = flat_phase_estimation(f, 6)
        # gate-count identity: F + n Hadamards + 63 blocks + inverse QFT
        iqft_gates = 6 + 15
        expected = len(f.gates) + 6 + 63 * len(block.gates) + iqft_gates
        assert len(circ6.gates) == expected

    def test_block_0_and_inverse_qft(self):
        # block 0 spans F's wires and est[0] only, and Q F's wires alone;
        # the inverse QFT spans F's wires and est
        dist, rv = small_problem(2)
        f = assemble_f([dist], rv)
        circuits = grover_operator(f, 3), grover_operator(f), inverse_qft(range(3, 7))
        assert [c.num_qubits for c in circuits] == [3 + 1, 3, 3 + 4]

    @pytest.mark.parametrize("case", ["exact", "trained_linear"])
    def test_block_0_touches_est_0_only_as_a_control(self, case):
        # what lets the circuit method build Q^y F|0> on F's wires alone:
        # block 0 is Q with V and Z0 controlled on est[0]
        rng = np.random.default_rng(3)
        dist = random_distribution(3, rng)
        if case == "exact":
            f = assemble_f([dist], normalize_rv(rng.uniform(0, 1, 8)))
        else:
            rv = normalize_rv(np.linspace(2.0, -1.0, 8))
            ansatz = VariationalAnsatz(3, 2, rng.uniform(-math.pi, math.pi, 18))
            f = assemble_f([dist], rv, ansatz, LinearRParams.for_oracle_budget(rv, 5))
        s = f.num_qubits
        block = grover_operator(f, s)
        touching = [g for g in block.gates if s in g.qubits]
        # the CZ and the zero reflection's MCX, in each of the two halves
        assert [g.kind for g in touching] == ["cz", "mcx"] * 2
        assert all(s in g.controls for g in touching)
        assert max(q for g in block.gates for q in g.qubits) == s
        released = [Gate("z", g.targets) if g.kind == "cz"
                    else replace(g, controls=tuple(c for c in g.controls if c != s))
                    for g in block.gates]
        assert grover_operator(f).gates == released

    def test_work_register_size(self):
        dist, rv = small_problem(3)
        f = assemble_f([dist], rv)
        circ = flat_phase_estimation(f, 2)
        assert circ.num_qubits == 4 + 2
        # system of m+1 wires: controls = est + m register wires -> m-1 work
        widest = max(len(g.controls) for g in circ.gates if g.kind == "mcx")
        assert widest == 4
        with pytest.raises(ValueError, match="needs 2 work wires"):
            decompose(circ, work=[6])
        assert decompose(circ, work=[6, 7]).num_qubits == 4 + 2 + 2

    def test_decomposable_and_countable(self):
        dist, rv = small_problem(2)
        f = assemble_f([dist], rv)
        circ = flat_phase_estimation(f, 2)
        # m+1 = 3 system wires: the controlled MCX has 3 controls, 1 work wire
        rep = count_resources(decompose(circ, work=[circ.num_qubits]))
        assert rep.total_gates > 0
        assert set(rep.counts) <= {"rx", "ry", "rz", "cnot"}


class TestReadout:
    def test_extract_point_masses(self):
        dist = np.zeros(64)
        dist[0] = 1.0
        assert extract_theta(dist) == 0.0
        dist = np.zeros(64)
        dist[32] = 1.0
        assert extract_theta(dist) == 0.5

    def test_tie_breaks_toward_smaller(self):
        dist = np.zeros(16)
        dist[3] = 0.5
        dist[5] = 0.5
        assert extract_theta(dist) == 3 / 16

    def test_requires_normalized(self):
        with pytest.raises(ValueError):
            extract_theta(np.full(8, 0.2))

    def test_four_outcomes_match_full_argmax(self):
        # random p1, p1 at and next to 0, 1/2 and 1, and p1 that put theta
        # on the outcome grid, where neighbouring outcomes can tie
        rng = np.random.default_rng(27)
        edges = [0.0, 1e-12, 0.5 - 1e-12, 0.5, 0.5 + 1e-12, 1.0 - 1e-12, 1.0]
        for n in range(1, 17):
            on_grid = np.sin(np.pi * rng.integers(0, 2**n, 20) / 2**(n + 1)) ** 2
            for p1 in [*rng.random(300), *edges, *on_grid]:
                full = extract_theta(spectral_distribution(float(p1), n))
                assert spectral_theta_hat(float(p1), n) == full, (n, p1)

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

    def test_in_place_readout_equals_masked_form(self):
        # the readout kernel as it was written before it worked in place:
        # the bits of every CSV distribution rest on this arithmetic
        def kernel(theta, n):
            size = 1 << n
            theta_hi = round(theta * (1 << 26)) / (1 << 26)
            d = theta_hi * size - np.arange(size, dtype=float)
            d -= size * np.round(d / size)
            d += (theta - theta_hi) * size
            d -= size * np.round(d / size)
            out = np.empty(size)
            small = np.abs(d) < 1e-9
            num = np.sin(np.pi * d[~small])
            den = size * np.sin(np.pi * d[~small] / size)
            out[~small] = (num / den) ** 2
            out[small] = 1.0
            return out

        rng = np.random.default_rng(17)
        for n in range(1, 15):
            for p1 in [*rng.uniform(size=6), 0.0, 1e-12, 0.25, 0.5 - 1e-7, 0.5,
                       0.75, 1.0]:
                theta = math.acos(1.0 - 2.0 * p1) / math.pi
                expected = 0.5 * (kernel(theta, n) + kernel(-theta, n))
                assert np.array_equal(spectral_distribution(p1, n), expected)

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
        f = assemble_f([dist], rv)
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
        results = {method: run_qmc(QMCConfig(n=4, method=method, **options),
                                   dists, rv, ansatz=ansatz)
                   for method in ("circuit", "auto")}
        np.testing.assert_allclose(results["circuit"].distribution,
                                   results["auto"].distribution, atol=1e-12)
        assert results["circuit"].p1 == pytest.approx(results["auto"].p1, abs=1e-12)

    @pytest.mark.parametrize("app,m,n,r_mode", [
        ("stress", 3, 6, "exact"), ("stress", 5, 7, "exact"),
        ("neoclassical", 7, 8, "exact"), ("neoclassical", 7, 8, "linear")],
        ids=["stress-3-6", "stress-5-7", "neoclassical-7-8",
             "neoclassical-7-8-linear"])
    def test_stress_methods_agree(self, app, m, n, r_mode):
        # stress: two Beta registers and the loss multiplexor over both; m = 5
        # is Fig. 7's register and m = 7 Fig. 6's, each at the reference's
        # paper-size estimation register
        results = {method: econ.estimate(econ.workload(app), m, n,
                                         r_mode=r_mode, method=method)
                   for method in ("circuit", "auto")}
        circuit, auto = (results[k].estimate for k in ("circuit", "auto"))
        np.testing.assert_allclose(circuit.distribution, auto.distribution,
                                   rtol=0, atol=1e-12)
        assert circuit.p1 == auto.p1
        assert circuit.theta_hat == auto.theta_hat

    def test_readout_symmetry(self):
        dist, rv = small_problem(3, seed=9)
        res = run_qmc(QMCConfig(dims=1, m=3, n=5, method="circuit"), [dist], rv)
        p = res.distribution
        np.testing.assert_allclose(p[1:], p[1:][::-1], atol=1e-9)

    def test_estimate_converges_to_encoded_mean(self):
        dist, rv = small_problem(3, seed=9)
        assert float(dist.masses @ rv.values) == pytest.approx(0.478, abs=1e-3)
        mu_true = float(dist.masses @ (rv.f_min + rv.values * (rv.f_max - rv.f_min)))
        res = run_qmc(QMCConfig(dims=1, m=3, n=11), [dist], rv)
        assert abs(res.mu - mu_true) < 2e-3 * (rv.f_max - rv.f_min)

    def test_encoded_mean_above_half_reads_folded(self):
        # the readout takes the left half, so p1 > 1/2 reads back as 1 - p1
        dist, rv = small_problem(3, seed=6)
        p1 = float(dist.masses @ rv.values)
        assert p1 == pytest.approx(0.524, abs=1e-3)
        folded = rv.f_min + (1.0 - p1) * (rv.f_max - rv.f_min)
        res = run_qmc(QMCConfig(dims=1, m=3, n=11), [dist], rv)
        assert abs(res.mu - folded) < 2e-3 * (rv.f_max - rv.f_min)

    def test_distribution_sums_to_one(self):
        dist, rv = small_problem(2, seed=3)
        for n in (2, 6, 16):
            res = run_qmc(QMCConfig(dims=1, m=2, n=n, method="auto"),
                          [dist], rv)
            assert abs(res.distribution.sum() - 1.0) < 1e-10

    def test_phase_estimate_validates(self):
        with pytest.raises(ValueError):
            PhaseEstimate(np.full(4, 0.3), 0.0, 0.0, 2, 0.3)

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
        for bad in ({"n": 0}, {"n": -1}, {"m": 0}):
            with pytest.raises(ValueError, match="need m >= 1 and n >= 1"):
                QMCConfig(**bad)
        # 128 B per amplitude of F and 32 B per outcome of the readout
        # within the 1 GiB budget: 23 qubits of F, 25 estimation qubits
        QMCConfig(dims=1, m=22, n=25)
        QMCConfig(dims=2, m=11)
        with pytest.raises(ResourceLimitError,
                           match="F register of 24 qubits needs 2147483648 bytes"):
            QMCConfig(dims=1, m=23)
        with pytest.raises(ResourceLimitError,
                           match="readout of 26 estimation qubits needs 2147483648"):
            QMCConfig(n=26)
