"""Shared test helpers: oracles and comparison utilities."""

import math

import numpy as np

from qmcecon.sim import Circuit, Gate, _apply_gate_tensor


def dft_matrix(n_qubits: int) -> np.ndarray:
    """Plain DFT as a matrix: the independent reference for QFT circuits."""
    dim = 1 << n_qubits
    j, k = np.meshgrid(np.arange(dim), np.arange(dim), indexing="ij")
    return np.exp(2j * np.pi * j * k / dim) / math.sqrt(dim)


def bit_reversal_matrix(n_qubits: int) -> np.ndarray:
    dim = 1 << n_qubits
    perm = np.zeros((dim, dim))
    for i in range(dim):
        rev = int(format(i, f"0{n_qubits}b")[::-1], 2)
        perm[rev, i] = 1.0
    return perm


def phase_aligned_distance(u: np.ndarray, v: np.ndarray) -> float:
    """Max elementwise |u*phase - v| minimized over one unit phase."""
    tr = np.trace(u.conj().T @ v)
    if abs(tr) > 1e-9:
        phase = tr / abs(tr)
    else:
        idx = np.unravel_index(np.argmax(np.abs(u)), u.shape)
        phase = v[idx] / u[idx]
    return float(np.max(np.abs(u * phase - v)))


def mcx_oracle(num_qubits, controls, target) -> np.ndarray:
    """Projector-controlled X built by direct basis enumeration."""
    dim = 1 << num_qubits
    mat = np.eye(dim, dtype=complex)
    for i in range(dim):
        if all((i >> (num_qubits - 1 - c)) & 1 for c in controls):
            j = i ^ (1 << (num_qubits - 1 - target))
            mat[i, i] = 0.0
            mat[j, i] = 1.0
    return mat


def work_wires(circuit: Circuit) -> range:
    """Work wires after the circuit's own, as many as its widest MCX needs."""
    widest = max((len(g.controls) for g in circuit.gates if g.kind == "mcx"),
                 default=0)
    return range(circuit.num_qubits, circuit.num_qubits + max(0, widest - 2))


def lowering_error(reference: np.ndarray, lowered: Circuit) -> float:
    """Distance of a lowered circuit from ``reference`` with work in |0>.

    The wires of ``lowered`` beyond the reference's are work wires.  Only the
    input columns with every work wire in |0> are simulated; the result is
    the larger of the phase-aligned distance of their work = |0> rows from
    ``reference`` and the largest amplitude the lowering leaves on the work
    wires.
    """
    nq = reference.shape[0].bit_length() - 1
    q = lowered.num_qubits
    cols = np.arange(1 << nq) << (q - nq)   # work wires are the low bits
    mat = np.zeros((1 << q, cols.size), dtype=complex)
    mat[cols, np.arange(cols.size)] = 1.0
    tensor = mat.reshape((2,) * q + (cols.size,))
    for gate in lowered.gates:
        _apply_gate_tensor(tensor, gate, q)
    leak = np.delete(mat, cols, axis=0)
    return max(phase_aligned_distance(reference, mat[cols]),
               float(np.max(np.abs(leak), initial=0.0)))


def brute_force_phase_estimation(q_matrix: np.ndarray, chi: np.ndarray,
                                 n: int) -> np.ndarray:
    """Reference estimation-register distribution by direct linear algebra.

    Builds sum_y |y> Q^y |chi> / sqrt(2**n) explicitly and applies the
    inverse DFT matrix on the y index; no circuit machinery involved.
    """
    size = 1 << n
    vecs = np.empty((size, chi.size), dtype=complex)
    v = chi.astype(complex)
    for y in range(size):
        vecs[y] = v
        v = q_matrix @ v
    phases = np.exp(-2j * np.pi * np.outer(np.arange(size), np.arange(size)) / size)
    amps = phases @ vecs / size
    return np.sum(np.abs(amps) ** 2, axis=1)


def random_circuit(num_qubits: int, num_gates: int, rng,
                   kinds=None) -> Circuit:
    kinds = kinds or ["rx", "ry", "rz", "h", "x", "cnot", "cz", "cry",
                      "cphase", "mcx"]
    circ = Circuit(num_qubits)
    for _ in range(num_gates):
        kind = rng.choice(kinds)
        if kind in ("rx", "ry", "rz"):
            circ.add(Gate(kind, (int(rng.integers(num_qubits)),),
                          angle=float(rng.uniform(-np.pi, np.pi))))
        elif kind in ("h", "x"):
            circ.add(Gate(kind, (int(rng.integers(num_qubits)),)))
        elif kind in ("cnot", "cz"):
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.add(Gate(kind, (int(b),), (int(a),)))
        elif kind in ("cry", "cphase"):
            a, b = rng.choice(num_qubits, size=2, replace=False)
            circ.add(Gate(kind, (int(b),), (int(a),),
                          float(rng.uniform(-np.pi, np.pi))))
        else:
            n_ctrl = int(rng.integers(1, min(4, num_qubits - 1) + 1))
            qs = rng.choice(num_qubits, size=n_ctrl + 1, replace=False)
            circ.add(Gate("mcx", (int(qs[-1]),),
                          tuple(int(q) for q in qs[:-1])))
    return circ


def random_distribution(m: int, rng):
    from qmcecon.distributions import DiscretizedDistribution

    masses = rng.uniform(0.05, 1.0, 1 << m)
    masses /= masses.sum()
    return DiscretizedDistribution(m, np.linspace(0.0, 1.0, 1 << m), masses)
