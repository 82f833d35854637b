import math

import numpy as np
import pytest

from qmcecon.sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    apply_circuit,
    dense_unitary,
    init_state,
    probabilities,
)

from util import phase_aligned_distance, random_circuit


class TestInitState:
    def test_single_qubit_zero_state(self):
        st = init_state(1)
        np.testing.assert_allclose(st.amplitudes, [1, 0])

    def test_three_qubits(self):
        st = init_state(3)
        assert st.amplitudes.shape == (8,)
        assert st.amplitudes[0] == 1.0
        assert np.all(st.amplitudes[1:] == 0)

    def test_cap_exceeded_names_memory(self):
        with pytest.raises(ResourceLimitError, match="bytes"):
            init_state(31)

    def test_zero_qubits_rejected(self):
        with pytest.raises(ValueError):
            init_state(0)


class TestApplyGate:
    """Single gates applied through apply_circuit."""

    def test_hadamard_on_zero(self):
        st = apply_circuit(init_state(1), Circuit(1).h(0))
        np.testing.assert_allclose(st.amplitudes, [1, 1] / np.sqrt(2))

    def test_cnot_on_10(self):
        # control qubit 0 set: |10> -> |11>
        st = apply_circuit(init_state(2), Circuit(2).x(0))
        st = apply_circuit(st, Circuit(2).cnot(0, 1))
        np.testing.assert_allclose(st.amplitudes, [0, 0, 0, 1], atol=1e-12)

    def test_ry_pi_is_half_turn(self):
        st = apply_circuit(init_state(1), Circuit(1).ry(0, math.pi))
        assert abs(abs(st.amplitudes[1]) - 1.0) < 1e-12

    def test_input_state_untouched(self):
        st = init_state(1)
        apply_circuit(st, Circuit(1).h(0))
        np.testing.assert_allclose(st.amplitudes, [1, 0])

    def test_out_of_range_index(self):
        with pytest.raises(ValueError, match="exceeds register"):
            Circuit(1).h(1)

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("cnot", (0,), (0,))  # overlap
        with pytest.raises(ValueError):
            Gate("ry", (0,), angle=math.nan)
        with pytest.raises(ValueError):
            Gate("ry", (0,))  # missing angle
        with pytest.raises(ValueError):
            Gate("warp", (0,))


class TestApplyCircuit:
    def test_empty_circuit_identity(self):
        st = apply_circuit(init_state(2), Circuit(2).h(0))
        out = apply_circuit(st, Circuit(2))
        np.testing.assert_array_equal(out.amplitudes, st.amplitudes)

    def test_double_hadamard(self):
        circ = Circuit(1).h(0).h(0)
        out = apply_circuit(init_state(1), circ)
        np.testing.assert_allclose(out.amplitudes, [1, 0], atol=1e-12)

    def test_qubit_count_mismatch(self):
        with pytest.raises(ValueError):
            apply_circuit(init_state(2), Circuit(3).h(0))

    def test_norm_preserved_on_random_circuits(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            nq = int(rng.integers(2, 6))
            circ = random_circuit(nq, 30, rng)
            st = apply_circuit(init_state(nq), circ)
            assert abs(np.linalg.norm(st.amplitudes) - 1.0) < 1e-10

    def test_reversibility(self):
        rng = np.random.default_rng(13)
        for _ in range(5):
            nq = int(rng.integers(2, 6))
            circ = random_circuit(nq, 25, rng)
            start = apply_circuit(init_state(nq), random_circuit(nq, 5, rng))
            roundtrip = apply_circuit(apply_circuit(start, circ), circ.inverse())
            fidelity = abs(np.vdot(start.amplitudes, roundtrip.amplitudes)) ** 2
            assert fidelity > 1 - 1e-9


class TestProbabilities:
    def test_plus_state(self):
        st = apply_circuit(init_state(1), Circuit(1).h(0))
        np.testing.assert_allclose(probabilities(st, [0]), [0.5, 0.5])

    def test_bell_marginal(self):
        circ = Circuit(2).h(0).cnot(0, 1)
        st = apply_circuit(init_state(2), circ)
        np.testing.assert_allclose(probabilities(st, [0]), [0.5, 0.5], atol=1e-12)

    def test_ordering_first_listed_is_msb(self):
        st = apply_circuit(init_state(2), Circuit(2).x(1))  # |01>
        np.testing.assert_allclose(probabilities(st, [0, 1]), [0, 1, 0, 0])
        np.testing.assert_allclose(probabilities(st, [1, 0]), [0, 0, 1, 0])

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError):
            probabilities(init_state(2), [0, 0])

    def test_marginal_consistency(self):
        rng = np.random.default_rng(17)
        for _ in range(5):
            nq = 5
            st = apply_circuit(init_state(nq), random_circuit(nq, 30, rng))
            full = probabilities(st).reshape((2,) * nq)
            subset = [0, 3]
            marg = probabilities(st, subset)
            direct = full.sum(axis=(1, 2, 4)).reshape(-1)
            np.testing.assert_allclose(marg, direct, atol=1e-12)
            assert abs(marg.sum() - 1.0) < 1e-10


class TestDenseUnitary:
    def test_hadamard_matrix(self):
        u = dense_unitary(Circuit(1).h(0))
        np.testing.assert_allclose(u, np.array([[1, 1], [1, -1]]) / np.sqrt(2))

    def test_cnot_permutation(self):
        u = dense_unitary(Circuit(2).cnot(0, 1))
        expect = np.eye(4)[:, [0, 1, 3, 2]]
        np.testing.assert_allclose(u, expect)

    def test_unitarity_random(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            nq = int(rng.integers(2, 6))
            u = dense_unitary(random_circuit(nq, 25, rng))
            np.testing.assert_allclose(u.conj().T @ u, np.eye(1 << nq), atol=1e-9)

    def test_matches_statevector_on_basis_states(self):
        rng = np.random.default_rng(23)
        nq = 4
        circ = random_circuit(nq, 20, rng)
        u = dense_unitary(circ)
        for basis in (0, 3, 9, 15):
            st = init_state(nq)
            st.amplitudes[0] = 0.0
            st.amplitudes[basis] = 1.0
            out = apply_circuit(st, circ)
            np.testing.assert_allclose(u[:, basis], out.amplitudes, atol=1e-10)

    def test_cap(self):
        with pytest.raises(ResourceLimitError):
            dense_unitary(Circuit(13).h(0))


def test_global_phase_helper_sane():
    u = dense_unitary(Circuit(1).h(0))
    assert phase_aligned_distance(u, np.exp(0.7j) * u) < 1e-12
