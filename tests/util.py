"""Shared test helpers: oracles and comparison utilities."""

import configparser
import math

import numpy as np

from qmcecon.circuits import inverse_qft
from qmcecon.distributions import _layer_unitaries
from qmcecon.engine import grover_operator
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


X = np.array([[0, 1], [1, 0]])


def controlled_oracle(num_qubits, controls, target, u, reads=None) -> np.ndarray:
    """The 2x2 ``u`` on ``target`` where the controls hold the bits of
    ``reads`` (the first control the most significant; all 1 by default),
    the identity elsewhere, built by direct basis enumeration."""
    controls = list(controls)
    reads = (1 << len(controls)) - 1 if reads is None else reads

    def bit(i, q):
        return (i >> (num_qubits - 1 - q)) & 1

    mat = np.eye(1 << num_qubits, dtype=complex)
    for i in range(1 << num_qubits):
        held = 0
        for c in controls:
            held = 2 * held + bit(i, c)
        if held == reads and not bit(i, target):
            j = i | 1 << (num_qubits - 1 - target)
            mat[np.ix_([i, j], [i, j])] = u
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
        _apply_gate_tensor(tensor, gate)
    leak = np.delete(mat, cols, axis=0)
    return max(phase_aligned_distance(reference, mat[cols]),
               float(np.max(np.abs(leak), initial=0.0)))


def flat_phase_estimation(f_circuit: Circuit, n: int) -> Circuit:
    """The whole estimation circuit written out gate by gate: F, the H layer,
    ``grover_operator(f, s + k)`` 2**(n-1-k) times for each k, and the
    inverse QFT.  Every block is built here on its own wire, where
    ``bench.resource_rows`` counts block 0 only and the ``circuit`` method
    applies Q on F's wires, and both take the rest by rule."""
    s = f_circuit.num_qubits
    est = range(s, s + n)
    circ = Circuit(s + n).extend(f_circuit)
    for q in est:
        circ.h(q)
    for k in range(n):
        circ.extend(grover_operator(f_circuit, s + k).gates * 2 ** (n - 1 - k))
    return circ.extend(inverse_qft(est))


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


def fit_r_squared(fit) -> float:
    """R**2 of a bench.ScalingFit over its stored (log-transformed) points."""
    x = np.array([p[0] for p in fit.points])
    y = np.array([p[1] for p in fit.points])
    resid = y - (fit.intercept + fit.slope * x)
    total = y - y.mean()
    return 1.0 - float(resid @ resid) / float(total @ total)


def write_stress_config(path, params) -> None:
    """Write a stress scenario as the INI file econ.load_stress_config reads."""
    parser = configparser.ConfigParser()
    for name, bank in zip(("bank1", "bank2"), params.banks):
        parser[name] = {key: repr(value) for key, value in vars(bank).items()}
    parser["system"] = {
        "price_sensitivity": repr(params.alpha_price),
        "leverage_ratio": repr(params.beta_lev),
        "benchmark_mortgage_loss": repr(params.d0_m),
        "benchmark_business_loss": repr(params.d0_b),
        "shock_beta_a": repr(params.shock_a),
        "shock_beta_b": repr(params.shock_b),
    }
    with open(path, "w") as fh:
        parser.write(fh)


def partial_trace_overlaps(blocks: np.ndarray) -> np.ndarray:
    """Every qubit's 2x2 overlap from (layers, 2**k, 2**k) chunk blocks by one
    einsum partial trace per qubit: (layers, k, 2, 2)."""
    layers, size = blocks.shape[0], blocks.shape[-1]
    k = size.bit_length() - 1
    overlap = np.empty((layers, k, 2, 2), dtype=blocks.dtype)
    for j in range(k):
        split = (layers, 1 << j, 2, 1 << (k - 1 - j), 1 << j, 2, 1 << (k - 1 - j))
        overlap[:, j] = np.einsum("lxayxby->lab", blocks.reshape(split))
    return overlap


def generator_gradient(theta: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """2 Re sum_ab G_k[a, b] M[a, b] with each generator G_k = (dU/d theta_k) U^+
    of U = RZ(c) RY(b) RZ(a) built as a matrix: G_a = U (-iZ/2) U^+,
    G_b = RZ(c) (-iY/2) RZ(c)^+ and G_c = -iZ/2.  (layers, m, 3) angles and
    (layers, m, 2, 2) overlaps to (layers, m, 3)."""
    layers, m = theta.shape[:2]
    u = _layer_unitaries(m, layers, theta)
    c = theta[..., 2]
    minus_i_half_z = np.diag([-0.5j, 0.5j])
    g = np.zeros(theta.shape[:2] + (3, 2, 2), dtype=np.complex128)
    g[:, :, 0] = u @ minus_i_half_z @ u.conj().swapaxes(-1, -2)
    g[:, :, 1, 0, 1] = -0.5 * np.exp(-1j * c)
    g[:, :, 1, 1, 0] = 0.5 * np.exp(1j * c)
    g[:, :, 2] = minus_i_half_z
    return 2.0 * np.einsum("lqkab,lqab->lqk", g, overlap).real
