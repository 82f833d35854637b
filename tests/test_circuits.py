import math
from collections import Counter

import numpy as np
import pytest

from qmcecon.circuits import (
    GateTimeModel,
    count_resources,
    decompose,
    inverse_qft,
)
from qmcecon.sim import Circuit, Gate, dense_unitary

from util import (bit_reversal_matrix, dft_matrix, lowering_error, mcx_oracle,
                  phase_aligned_distance, random_circuit, work_wires)


class TestInverseQft:
    def test_single_qubit_is_hadamard(self):
        circ = inverse_qft([0])
        assert [g.kind for g in circ.gates] == ["h"]

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_inverse_dft_up_to_bit_reversal(self, n):
        u = dense_unitary(inverse_qft(range(n)))
        expect = bit_reversal_matrix(n) @ dft_matrix(n).conj().T
        np.testing.assert_allclose(u, expect, atol=1e-10)

    def test_gate_counts(self):
        counts = Counter(g.kind for g in inverse_qft(range(6)).gates)
        assert counts == {"h": 6, "cphase": 15}

    @pytest.mark.parametrize("n", [1, 2, 5, 8])
    def test_count_formula(self, n):
        counts = Counter(g.kind for g in inverse_qft(range(n)).gates)
        assert counts["h"] == n
        assert counts.get("cphase", 0) == n * (n - 1) // 2

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            inverse_qft([])


class TestMcx:
    """Lowering of a native k-control MCX; k >= 3 borrows k-2 work wires."""

    def test_single_control_is_cnot(self):
        out = decompose(Circuit(2).mcx([0], 1))
        assert [(g.kind, g.targets, g.controls) for g in out.gates] == [
            ("cnot", (1,), (0,))]
        assert lowering_error(mcx_oracle(2, [0], 1), out) < 1e-12

    def test_two_controls_is_toffoli(self):
        out = decompose(Circuit(3).mcx([0, 1], 2))
        assert Counter(g.kind for g in out.gates)["cnot"] == 6
        assert lowering_error(mcx_oracle(3, [0, 1], 2), out) < 1e-12

    def test_ladder_with_work(self):
        # exact on the work = |0> inputs, work wires returned to |0>
        for k in (3, 4, 5):
            out = decompose(Circuit(k + 1).mcx(range(k), k),
                            work=range(k + 1, 2 * k - 1))
            assert out.num_qubits == 2 * k - 1
            assert lowering_error(mcx_oracle(k + 1, range(k), k), out) < 1e-10

    def test_ladder_gate_count(self):
        toffoli = len(decompose(Circuit(3).mcx([0, 1], 2)).gates)
        for k in (3, 4, 5, 6):
            out = decompose(Circuit(k + 1).mcx(range(k), k),
                            work=range(k + 1, 2 * k - 1))
            assert len(out.gates) == (2 * k - 3) * toffoli
            # surplus work wires stay untouched
            wide = decompose(Circuit(k + 1).mcx(range(k), k),
                             work=range(k + 1, 2 * k + 2))
            assert wide.gates == out.gates

    def test_missing_work_rejected(self):
        with pytest.raises(ValueError, match="needs 1 work wires, got 0"):
            decompose(Circuit(4).mcx([0, 1, 2], 3))
        with pytest.raises(ValueError, match="needs 2 work wires, got 1"):
            decompose(Circuit(5).mcx([0, 1, 2, 3], 4), work=[5])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap mcx wires"):
            decompose(Circuit(5).mcx([0, 1, 2], 3), work=[3])
        # work wire 3 is also a control: no single Toffoli of the ladder
        # would repeat a wire, so only the explicit check catches it
        with pytest.raises(ValueError, match="overlap mcx wires"):
            decompose(Circuit(7).mcx([0, 1, 2, 3], 4), work=[3, 6])
        with pytest.raises(ValueError, match="duplicate"):
            decompose(Circuit(5).mcx([0, 1, 2, 3], 4), work=[5, 5])


class TestDecompose:
    def test_elementary_fixpoint(self):
        circ = Circuit(2).rx(0, 0.3).ry(1, -0.2).rz(0, 1.0).cnot(0, 1)
        out = decompose(circ)
        assert Counter(g.kind for g in out.gates) == Counter(
            g.kind for g in circ.gates)

    def test_cry_rule(self):
        circ = Circuit(2).cry(0, 1, 0.7)
        out = decompose(circ)
        assert Counter(g.kind for g in out.gates) == {"ry": 2, "cnot": 2}
        assert phase_aligned_distance(dense_unitary(circ), dense_unitary(out)) < 1e-12

    @pytest.mark.parametrize("builder", [
        lambda c: c.h(0),
        lambda c: c.x(1),
        lambda c: c.cz(0, 1),
        lambda c: c.cphase(1, 0, 0.9),
        lambda c: c.mcx([0, 1], 2),
        lambda c: c.mcx([0, 1, 2], 3),
    ])
    def test_each_rule_sound(self, builder):
        circ = Circuit(4)
        builder(circ)
        out = decompose(circ, work_wires(circ))
        assert all(g.kind in ("rx", "ry", "rz", "cnot") for g in out.gates)
        assert lowering_error(dense_unitary(circ), out) < 1e-10

    def test_randomized_soundness(self):
        rng = np.random.default_rng(31)
        for _ in range(20):
            nq = int(rng.integers(2, 7))
            circ = random_circuit(nq, 20, rng)
            out = decompose(circ, work_wires(circ))
            assert all(g.kind in ("rx", "ry", "rz", "cnot") for g in out.gates)
            assert lowering_error(dense_unitary(circ), out) < 1e-8


class TestResources:
    def test_serial_chain(self):
        circ = Circuit(2).rx(0, 1.0).rx(0, 1.0).rx(0, 1.0)
        rep = count_resources(circ)
        assert rep.total_gates == 3 and rep.depth == 3

    def test_parallel_gates(self):
        circ = Circuit(2).rx(0, 1.0).rx(1, 1.0)
        rep = count_resources(circ)
        assert rep.total_gates == 2 and rep.depth == 1

    def test_depth_at_most_total(self):
        rng = np.random.default_rng(37)
        circ = random_circuit(5, 30, rng)
        rep = count_resources(decompose(circ, work_wires(circ)))
        assert rep.depth <= rep.total_gates

    def test_depth_monotone_under_append(self):
        rng = np.random.default_rng(41)
        circ = random_circuit(4, 15, rng)
        circ = decompose(circ, work_wires(circ))
        depth = count_resources(circ).depth
        circ.rx(2, 0.1)
        assert count_resources(circ).depth >= depth

    def test_rejects_unlowered_gates(self):
        with pytest.raises(ValueError, match="decompose"):
            count_resources(Circuit(1).h(0))

    def test_gate_time_positive(self):
        with pytest.raises(ValueError):
            GateTimeModel(0.0)
