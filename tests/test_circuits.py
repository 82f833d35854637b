from collections import Counter

import numpy as np
import pytest

from qmcecon.circuits import (
    ELEMENTARY_KINDS,
    NO_PATH,
    count_resources,
    count_stream,
    decompose,
    inverse_qft,
    maxplus,
    maxplus_squarings,
    transfer_matrix,
)
from qmcecon.sim import Circuit, Gate, dense_unitary

from util import (X, bit_reversal_matrix, controlled_oracle, dft_matrix,
                  lowering_error, phase_aligned_distance, random_circuit,
                  work_wires)


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


def mcx(width, controls, target):
    """A ``width``-qubit circuit of one native MCX."""
    return Circuit(width).add(Gate("mcx", (target,), tuple(controls)))


class TestMcx:
    """Lowering of a native k-control MCX; k >= 3 borrows k-2 work wires."""

    def test_single_control_is_cnot(self):
        out = decompose(mcx(2, [0], 1))
        assert [(g.kind, g.targets, g.controls) for g in out.gates] == [
            ("cnot", (1,), (0,))]
        assert lowering_error(controlled_oracle(2, [0], 1, X), out) < 1e-12

    def test_two_controls_is_toffoli(self):
        out = decompose(mcx(3, [0, 1], 2))
        assert Counter(g.kind for g in out.gates)["cnot"] == 6
        assert lowering_error(controlled_oracle(3, [0, 1], 2, X), out) < 1e-12

    def test_ladder_with_work(self):
        # exact on the work = |0> inputs, work wires returned to |0>
        for k in (3, 4, 5):
            out = decompose(mcx(k + 1, range(k), k),
                            work=range(k + 1, 2 * k - 1))
            assert out.num_qubits == 2 * k - 1
            assert lowering_error(controlled_oracle(k + 1, range(k), k, X),
                                  out) < 1e-10

    def test_ladder_gate_count(self):
        toffoli = len(decompose(mcx(3, [0, 1], 2)).gates)
        for k in (3, 4, 5, 6):
            out = decompose(mcx(k + 1, range(k), k),
                            work=range(k + 1, 2 * k - 1))
            assert len(out.gates) == (2 * k - 3) * toffoli
            # surplus work wires stay untouched
            wide = decompose(mcx(k + 1, range(k), k),
                             work=range(k + 1, 2 * k + 2))
            assert wide.gates == out.gates

    def test_missing_work_rejected(self):
        with pytest.raises(ValueError, match="needs 1 work wires, got 0"):
            decompose(mcx(4, [0, 1, 2], 3))
        with pytest.raises(ValueError, match="needs 2 work wires, got 1"):
            decompose(mcx(5, [0, 1, 2, 3], 4), work=[5])

    def test_overlap_rejected(self):
        with pytest.raises(ValueError, match="overlap mcx wires"):
            decompose(mcx(5, [0, 1, 2], 3), work=[3])
        # work wire 3 is also a control: no single Toffoli of the ladder
        # would repeat a wire, so only the explicit check catches it
        with pytest.raises(ValueError, match="overlap mcx wires"):
            decompose(mcx(7, [0, 1, 2, 3], 4), work=[3, 6])
        with pytest.raises(ValueError, match="duplicate"):
            decompose(mcx(5, [0, 1, 2, 3], 4), work=[5, 5])


class TestUcry:
    """The native multiplexor against its RY/CNOT lowering."""

    @staticmethod
    def random_ucry(rng) -> Circuit:
        k = int(rng.integers(0, 5))
        nq = k + 1 + int(rng.integers(0, 2))     # sometimes an idle wire
        wires = [int(q) for q in rng.permutation(nq)]
        return Circuit(nq).ucry(wires[:k], wires[k],
                                rng.uniform(-2 * np.pi, 2 * np.pi, 1 << k))

    def test_equals_its_lowering(self):
        rng = np.random.default_rng(2004)
        for _ in range(40):
            circ = self.random_ucry(rng)
            for c in (circ, circ.inverse()):
                out = decompose(c)
                assert {g.kind for g in out.gates} <= {"ry", "cnot"}
                np.testing.assert_allclose(dense_unitary(c), dense_unitary(out),
                                           atol=1e-13)

    def test_inverse_negates_and_undoes(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            circ = self.random_ucry(rng)
            gate, inv = circ.gates[0], circ.inverse().gates[0]
            assert inv.angle == tuple(-a for a in gate.angle)
            both = Circuit(circ.num_qubits).extend(circ).extend(circ.inverse())
            np.testing.assert_allclose(dense_unitary(both),
                                       np.eye(1 << circ.num_qubits), atol=1e-14)

    @pytest.mark.parametrize("kind,controls,angles", [
        ("ucry", (), ()),
        ("ucry", (0,), (0.1,)),
        ("ucry", (0, 1), (0.1, 0.2, 0.3)),
        ("ucry", (0,), (0.1, float("nan"))),
        ("ucry", (0,), (float("inf"), 0.2)),
        ("ucry", (0,), np.array([0.1, 0.2])),    # would leave Gate unhashable
        ("cnot", (0,), (0.1,)),
    ])
    def test_bad_angles_rejected(self, kind, controls, angles):
        with pytest.raises(ValueError, match="angle"):
            Gate(kind, (2,), controls, angles)


class TestDecompose:
    def test_elementary_fixpoint(self):
        circ = (Circuit(2).add(Gate("rx", (0,), angle=0.3))
                .ry(1, -0.2).rz(0, 1.0).cnot(0, 1))
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
        lambda c: c.add(Gate("x", (1,))),
        lambda c: c.add(Gate("cz", (1,), (0,))),
        lambda c: c.cphase(1, 0, 0.9),
        lambda c: c.add(Gate("mcx", (2,), (0, 1))),
        lambda c: c.add(Gate("mcx", (3,), (0, 1, 2))),
        lambda c: c.add(Gate("z", (1,))),
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
        rx = Gate("rx", (0,), angle=1.0)
        circ = Circuit(2).add(rx).add(rx).add(rx)
        rep = count_resources(circ)
        assert rep.total_gates == 3 and rep.depth == 3

    def test_parallel_gates(self):
        circ = Circuit(2).extend(Gate("rx", (q,), angle=1.0) for q in (0, 1))
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
        circ.add(Gate("rx", (2,), angle=0.1))
        assert count_resources(circ).depth >= depth

    def test_rejects_unlowered_gates(self):
        for circ in (Circuit(1).h(0), Circuit(2).ucry([0], 1, [0.1, 0.2])):
            with pytest.raises(ValueError, match="decompose"):
                count_resources(circ)


class TestComposedCount:
    """A repeated block counted once: counts times r, depth by max-plus powers."""

    @pytest.mark.parametrize("repeats", [1, 2, 64])
    def test_matches_flat_repetition(self, repeats):
        rng = np.random.default_rng(100 + repeats)
        width = 6
        kinds = list(ELEMENTARY_KINDS)
        prefix = random_circuit(width, 10, rng, kinds)
        block = random_circuit(4, 25, rng, kinds)     # wires 4 and 5 untouched
        suffix = random_circuit(width, 10, rng, kinds)
        flat = count_stream(prefix.gates + block.gates * repeats + suffix.gates,
                            width)
        counts = Counter()
        frontier = np.zeros(width, dtype=np.int64)
        for segment, r in ((prefix, 1), (block, repeats), (suffix, 1)):
            counts.update({kind: c * r for kind, c
                           in count_stream(segment.gates, width).counts.items()})
            # r is a power of two: the last of r.bit_length() squarings
            frontier = maxplus(frontier, maxplus_squarings(
                transfer_matrix(segment.gates, width), r.bit_length())[-1])
        assert dict(counts) == flat.counts
        assert int(frontier.max()) == flat.depth
        # the squared power acts as the flat repetition's own matrix
        start = rng.integers(0, 50, width)
        np.testing.assert_array_equal(
            maxplus(start, maxplus_squarings(
                transfer_matrix(block.gates, width), repeats.bit_length())[-1]),
            maxplus(start, transfer_matrix(block.gates * repeats, width)))

    def test_squarings_are_doubled_repetitions(self):
        rng = np.random.default_rng(7)
        block = random_circuit(4, 25, rng, list(ELEMENTARY_KINDS))
        powers = maxplus_squarings(transfer_matrix(block.gates, 5), 5)
        assert len(powers) == 5
        for j, power in enumerate(powers):
            np.testing.assert_array_equal(
                power, transfer_matrix(block.gates * 2**j, 5))
        assert maxplus_squarings(powers[0], 0) == []

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_frontier_scan_from_each_input_wire(self, seed):
        # wires 0-3 take any elementary gate, wires 4 and 5 one-wire gates
        # only, and wires 6 and 7 none
        rng = np.random.default_rng(300 + seed)
        width = 8
        gates = random_circuit(4, 40, rng, list(ELEMENTARY_KINDS)).gates
        gates += [Gate("rz", (int(q),), angle=0.1) for q in rng.integers(4, 6, 12)]
        rng.shuffle(gates)
        want = np.empty((width, width), dtype=np.int64)
        for i in range(width):
            # the longest path from the input of wire i, scheduled as in
            # count_stream: a gate ends one layer past the latest of its wires
            frontier = np.full(width, NO_PATH, dtype=np.int64)
            frontier[i] = 0
            for gate in gates:
                latest = max(frontier[q] for q in gate.qubits)
                if latest != NO_PATH:
                    frontier[list(gate.qubits)] = latest + 1
            want[i] = frontier
        assert set(range(6)) <= {q for gate in gates for q in gate.qubits}
        np.testing.assert_array_equal(
            transfer_matrix((gate for gate in gates), width), want)

    def test_no_wires_is_an_empty_int64_matrix(self):
        t = transfer_matrix(iter(()), 0)
        assert t.shape == (0, 0) and t.dtype == np.int64

    def test_untouched_wire_passes_through(self):
        t = transfer_matrix(
            Circuit(3).add(Gate("rx", (0,), angle=0.1)).cnot(0, 1).gates, 3)
        np.testing.assert_array_equal(t, [[2, 2, NO_PATH],
                                          [1, 1, NO_PATH],
                                          [NO_PATH, NO_PATH, 0]])
        # five repeats: the squarings at the set bits of 5
        once, _, fourth = maxplus_squarings(t, 3)
        np.testing.assert_array_equal(
            maxplus(maxplus(np.array([4, 0, 9]), once), fourth), [14, 14, 9])
