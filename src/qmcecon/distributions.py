"""Discretized probability distributions and quantum state preparation.

Two preparation routes are provided for loading a distribution's square-root
amplitudes onto a register:

* ``exact_state_prep`` -- a uniformly controlled RY tree.  Exact to machine
  precision but exponential in gate count, so it serves as the
  simulation-exact reference rather than a hardware-honest circuit.
* a trainable layered ansatz (``ansatz_circuit`` / ``train_ansatz``) whose
  output distribution is fitted to the target with plain gradient descent on
  an L1 cost, using parameter-shift gradients.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import stats

from .sim import Circuit, Gate


@dataclass
class DiscretizedDistribution:
    """Grid points x_i with normalized masses p(i) on 2**m points."""

    m: int
    grid: np.ndarray
    masses: np.ndarray

    def __post_init__(self):
        n = 1 << self.m
        self.grid = np.asarray(self.grid, dtype=float)
        self.masses = np.asarray(self.masses, dtype=float)
        if self.grid.shape != (n,) or self.masses.shape != (n,):
            raise ValueError(f"need 2**{self.m} grid points and masses")
        if np.any(np.diff(self.grid) <= 0):
            raise ValueError("grid must be strictly increasing")
        if np.any(self.masses < 0) or abs(self.masses.sum() - 1.0) > 1e-12:
            raise ValueError("masses must be nonnegative and sum to 1")

    def mean(self) -> float:
        return float(np.dot(self.masses, self.grid))


def _pointwise_masses(density: np.ndarray) -> np.ndarray:
    total = density.sum()
    if not np.isfinite(total) or total <= 0:
        raise ValueError("density values do not normalize")
    return density / total


def discretize_normal(m: int, mean: float, sigma: float,
                      x_min: float, x_max: float) -> DiscretizedDistribution:
    """Normal density sampled on a uniform grid and renormalized to sum 1."""
    if m < 1:
        raise ValueError(f"need m >= 1 grid qubits, got {m}")
    if sigma <= 0:
        raise ValueError(f"sigma must be positive, got {sigma}")
    if not x_min < x_max:
        raise ValueError(f"need x_min < x_max, got [{x_min}, {x_max}]")
    grid = np.linspace(x_min, x_max, 1 << m)
    density = np.exp(-0.5 * ((grid - mean) / sigma) ** 2)
    return DiscretizedDistribution(m, grid, _pointwise_masses(density))


def discretize_beta(m: int, a: float, b: float) -> DiscretizedDistribution:
    """Beta(a, b) density on a uniform [0, 1] grid, endpoints included."""
    if a <= 0 or b <= 0:
        raise ValueError(f"Beta shapes must be positive, got a={a}, b={b}")
    grid = np.linspace(0.0, 1.0, 1 << m)
    density = stats.beta.pdf(grid, a, b)
    # a >= 1 and b >= 1 keep the pdf finite on [0, 1]; otherwise the endpoint
    # values diverge and cannot carry point masses.
    if not np.all(np.isfinite(density)):
        raise ValueError(f"Beta({a},{b}) density diverges at a grid endpoint")
    return DiscretizedDistribution(m, grid, _pointwise_masses(density))


# ---------------------------------------------------------------------------
# Exact state preparation (uniformly controlled RY tree)
# ---------------------------------------------------------------------------

def _ucry_gates(angles: np.ndarray, controls: list[int], target: int):
    """Uniformly controlled RY: rotate target by angles[i] for control state i.

    Recursive multiplexor built from plain RY and CNOT; the first control is
    the most significant bit of i.  Gate count is 2**k RY + 2**k CNOT.
    """
    if not controls:
        yield Gate("ry", (target,), angle=float(angles[0]))
        return
    half = len(angles) // 2
    a0, a1 = angles[:half], angles[half:]
    yield from _ucry_gates((a0 + a1) / 2, controls[1:], target)
    yield Gate("cnot", (target,), (controls[0],))
    yield from _ucry_gates((a0 - a1) / 2, controls[1:], target)
    yield Gate("cnot", (target,), (controls[0],))


def exact_state_prep(dist: DiscretizedDistribution, qubits=None) -> Circuit:
    """Circuit mapping |0..0> to sum_i sqrt(p(i)) |i> (real, nonnegative).

    Level k rotates qubit k by the branch angle of each k-bit prefix, giving
    the usual binary-tree amplitude loading.
    """
    m = dist.m
    qubits = list(range(m)) if qubits is None else list(qubits)
    if len(qubits) != m:
        raise ValueError(f"need {m} qubits, got {qubits}")
    circ = Circuit(max(qubits) + 1)
    subtree = dist.masses.copy()  # level m: mass per leaf
    levels = []
    for k in range(m - 1, -1, -1):
        pairs = subtree.reshape(-1, 2)
        left, right = pairs[:, 0], pairs[:, 1]
        angles = 2.0 * np.arctan2(np.sqrt(right), np.sqrt(left))
        levels.append((k, angles))
        subtree = pairs.sum(axis=1)
    for k, angles in reversed(levels):
        for g in _ucry_gates(angles, qubits[:k], qubits[k]):
            circ.add(g)
    return circ


# ---------------------------------------------------------------------------
# Variational ansatz
# ---------------------------------------------------------------------------

@dataclass
class VariationalAnsatz:
    """Layered hardware-style ansatz: per layer an RZ-RY-RZ rotation on every
    qubit followed by a CNOT chain q -> q+1."""

    m: int
    layers: int
    params: np.ndarray

    def __post_init__(self):
        self.params = np.asarray(self.params, dtype=float).reshape(-1)
        if self.params.shape != (self.num_params(self.m, self.layers),):
            raise ValueError(
                f"ansatz with m={self.m}, layers={self.layers} needs "
                f"{self.num_params(self.m, self.layers)} params, got {self.params.size}"
            )
        if not np.all(np.isfinite(self.params)):
            raise ValueError("ansatz parameters must be finite")

    @staticmethod
    def num_params(m: int, layers: int) -> int:
        return layers * m * 3


@dataclass
class TrainingSchedule:
    """Staged plain-gradient-descent schedule: [(epochs, learning_rate), ...]."""

    stages: list[tuple[int, float]]
    seed: int = 0

    def __post_init__(self):
        for epochs, lr in self.stages:
            if epochs <= 0 or lr <= 0:
                raise ValueError(f"bad schedule stage ({epochs}, {lr})")

    def total_epochs(self) -> int:
        return sum(e for e, _ in self.stages)


APPENDIX_SCHEDULE = TrainingSchedule([(1000, 0.01), (1000, 0.001), (1000, 0.0001)])


def ansatz_circuit(ansatz: VariationalAnsatz, qubits=None) -> Circuit:
    m = ansatz.m
    qubits = list(range(m)) if qubits is None else list(qubits)
    if len(qubits) != m:
        raise ValueError(f"need {m} qubits, got {qubits}")
    circ = Circuit(max(qubits) + 1)
    theta = ansatz.params.reshape(ansatz.layers, m, 3)
    for layer in range(ansatz.layers):
        for q in range(m):
            circ.rz(qubits[q], theta[layer, q, 0])
            circ.ry(qubits[q], theta[layer, q, 1])
            circ.rz(qubits[q], theta[layer, q, 2])
        for q in range(m - 1):
            circ.cnot(qubits[q], qubits[q + 1])
    return circ


# -- fast batched evaluation -------------------------------------------------
# Gradient descent evaluates the same circuit at 2P+1 parameter vectors per
# epoch (parameter-shift pairs plus the base point), so the simulator below
# runs a whole batch of statevectors through the shared gate sequence.

def _batch_probs(m: int, layers: int, params_batch: np.ndarray) -> np.ndarray:
    """Output probabilities of the ansatz for each parameter row.

    params_batch: (B, layers*m*3) -> (B, 2**m)
    """
    batch = params_batch.shape[0]
    dim = 1 << m
    state = np.zeros((batch, dim), dtype=np.complex128)
    state[:, 0] = 1.0
    tensor = state.reshape((batch,) + (2,) * m)
    theta = params_batch.reshape(batch, layers, m, 3)

    def rotate_rz(axis, phi):
        moved = np.moveaxis(tensor, axis, 1)
        shape = (batch,) + (1,) * (moved.ndim - 2)
        moved[:, 0] *= np.exp(-0.5j * phi).reshape(shape)
        moved[:, 1] *= np.exp(0.5j * phi).reshape(shape)

    def rotate_ry(axis, phi):
        moved = np.moveaxis(tensor, axis, 1)
        shape = (batch,) + (1,) * (moved.ndim - 2)
        c = np.cos(phi / 2).reshape(shape)
        s = np.sin(phi / 2).reshape(shape)
        a0 = moved[:, 0].copy()
        a1 = moved[:, 1]
        moved[:, 0] = c * a0 - s * a1
        moved[:, 1] = s * a0 + c * a1

    def cnot(control_axis, target_axis):
        moved = np.moveaxis(tensor, (control_axis, target_axis), (1, 2))
        block = moved[:, 1]
        tmp = block[:, 0].copy()
        block[:, 0] = block[:, 1]
        block[:, 1] = tmp

    for layer in range(layers):
        for q in range(m):
            axis = 1 + q
            rotate_rz(axis, theta[:, layer, q, 0])
            rotate_ry(axis, theta[:, layer, q, 1])
            rotate_rz(axis, theta[:, layer, q, 2])
        for q in range(m - 1):
            cnot(1 + q, 2 + q)
    return np.abs(state) ** 2


def ansatz_probs(ansatz: VariationalAnsatz) -> np.ndarray:
    return _batch_probs(ansatz.m, ansatz.layers, ansatz.params[None, :])[0]


def ansatz_cost(ansatz: VariationalAnsatz, target: DiscretizedDistribution) -> float:
    """L1 distance between the circuit's output distribution and the target."""
    if ansatz.m != target.m:
        raise ValueError(f"ansatz m={ansatz.m} vs target m={target.m}")
    return float(np.abs(ansatz_probs(ansatz) - target.masses).sum())


def _cost_and_gradient(m, layers, params, target_masses):
    """Cost plus its parameter-shift gradient, batched over shifts.

    d p_i / d theta_j = (p_i(theta_j + pi/2) - p_i(theta_j - pi/2)) / 2 holds
    exactly for RY/RZ generators; the L1 cost chains through the sign of the
    base residual.
    """
    n_par = params.size
    batch = np.tile(params, (2 * n_par + 1, 1))
    batch[1:n_par + 1, :] += np.eye(n_par) * (math.pi / 2)
    batch[n_par + 1:, :] -= np.eye(n_par) * (math.pi / 2)
    probs = _batch_probs(m, layers, batch)
    residual = probs[0] - target_masses
    cost = float(np.abs(residual).sum())
    sign = np.sign(residual)
    dprob = 0.5 * (probs[1:n_par + 1] - probs[n_par + 1:])  # (P, dim)
    grad = dprob @ sign
    return cost, grad


def train_ansatz(target: DiscretizedDistribution, layers: int,
                 schedule: TrainingSchedule) -> tuple[VariationalAnsatz, np.ndarray]:
    """Fit the ansatz distribution to ``target`` by plain gradient descent.

    Parameters start at seeded uniform values in [-0.1, 0.1].  Returns the
    trained ansatz and the per-epoch cost trace (deterministic given seed).
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    m = target.m
    rng = np.random.default_rng(schedule.seed)
    params = rng.uniform(-0.1, 0.1, size=VariationalAnsatz.num_params(m, layers))
    trace = np.empty(schedule.total_epochs())
    epoch = 0
    for epochs, lr in schedule.stages:
        for _ in range(epochs):
            cost, grad = _cost_and_gradient(m, layers, params, target.masses)
            trace[epoch] = cost
            params = params - lr * grad
            epoch += 1
    return VariationalAnsatz(m, layers, params), trace


# ---------------------------------------------------------------------------
# Parameter persistence
# ---------------------------------------------------------------------------

def save_ansatz(path, ansatz: VariationalAnsatz, seed: int, final_cost: float) -> None:
    """Flat text artifact: header line then one angle per line (repr floats
    round-trip bit-exactly)."""
    with open(path, "w") as fh:
        fh.write(f"# m={ansatz.m} layers={ansatz.layers} seed={seed} "
                 f"final_cost={final_cost!r}\n")
        for angle in ansatz.params:
            fh.write(f"{float(angle)!r}\n")


def load_ansatz(path) -> tuple[VariationalAnsatz, dict]:
    with open(path) as fh:
        header = fh.readline()
        if not header.startswith("#"):
            raise ValueError(f"{path} is not an ansatz parameter file")
        meta = {}
        for token in header[1:].split():
            key, _, value = token.partition("=")
            meta[key] = value
        params = np.array([float(line) for line in fh if line.strip()])
    m, layers = int(meta["m"]), int(meta["layers"])
    return VariationalAnsatz(m, layers, params), meta
