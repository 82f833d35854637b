"""Discretized probability distributions and quantum state preparation.

Two preparation routes are provided for loading a distribution's square-root
amplitudes onto a register:

* ``exact_state_prep`` -- a uniformly controlled RY tree, one native
  multiplexor (``ucry``) per level.  Exact to machine precision, and the
  simulator applies each level in one pass over the state.  On hardware it
  stays exponential in gate count (Grover and Rudolph 2002, quant-ph/0208112:
  level k lowers to 2**k RY and 2**(k+1) - 2 CNOT gates), so it serves as
  the simulation-exact reference rather than a hardware-honest circuit.
* a trainable layered ansatz (``ansatz_circuit`` / ``train_ansatz``) whose
  output distribution is fitted to the target with plain gradient descent on
  an L1 cost.  Training simulates the ansatz with a fused per-layer kernel:
  the register is cut into chunks of at most ``CHUNK_QUBITS`` consecutive
  qubits, each chunk's rotations are one dense 2**k x 2**k matrix applied
  with one matmul, and the CNOT chain is one index permutation, built once
  per register size with its inverse.  The gradient comes from one reverse
  sweep over the stored forward states, which keeps one 2**k x 2**k overlap
  block per layer and chunk.  One gather through a table of flat block
  positions, built once per chunk size, reads every qubit's 2x2 overlap
  (the block's partial trace down to that qubit), and the closed-form
  generators of RZ(c) RY(b) RZ(a) turn each overlap into its three angles'
  derivatives.  That gradient equals the parameter-shift rule exactly;
  hardware, which cannot store states, would evaluate the shifted circuits
  instead.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .sim import Circuit, check_memory


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
    """Beta(a, b) density on a uniform [0, 1] grid, endpoints included.

    The density is x^(a-1) (1-x)^(b-1) / B(a, b) with
    log B(a, b) = lgamma(a) + lgamma(b) - lgamma(a + b).  It is evaluated as
    exp of its logarithm, so large shapes such as a = b = 600 stay finite
    where the plain product overflows.  At an endpoint a zero exponent gives
    exactly 1, a positive one 0 and a negative one +inf.  Where exp
    underflows at every grid point (a = b = 1e6), or log B(a, b) overflows
    (a = 1e306), the masses come from the log-density less its maximum.
    """
    if m < 1:
        raise ValueError(f"need m >= 1 grid qubits, got {m}")
    if not (math.isfinite(a) and math.isfinite(b) and a > 0 and b > 0):
        raise ValueError(f"Beta shapes must be positive and finite, got a={a}, b={b}")
    if m == 1 and a > 1 and b > 1:
        raise ValueError(f"Beta({a},{b}) has zero density at both points of the "
                         "2**1-point grid {0, 1}; shapes both above 1 need m >= 2")
    grid = np.linspace(0.0, 1.0, 1 << m)
    try:
        log_beta = math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
    except OverflowError:   # a shape near the float range (a = 1e306)
        log_beta = math.inf
    # a constant cancels under normalisation, so a non-finite one is left out
    finite_norm = math.isfinite(log_beta)
    log_density = np.full(grid.shape, -log_beta if finite_norm else 0.0)
    with np.errstate(divide="ignore"):
        # Skipping a zero exponent keeps 0 * log(0) from making a NaN.
        if a != 1:
            log_density += (a - 1) * np.log(grid)
        if b != 1:
            log_density += (b - 1) * np.log1p(-grid)
    density = np.exp(log_density)
    # a >= 1 and b >= 1 keep the pdf finite on [0, 1]; otherwise the endpoint
    # values diverge and cannot carry point masses.
    if not np.all(np.isfinite(density)):
        raise ValueError(f"Beta({a},{b}) density diverges at a grid endpoint")
    total = density.sum()
    if not finite_norm or total == 0 or not np.isfinite(total):
        # Shapes so large that exp underflows at every grid point (or the
        # sum or B(a, b) overflows): scale by the largest value, which only
        # this case does, so every grid that normalizes as it is keeps its bits.
        density = np.exp(log_density - log_density.max())
    return DiscretizedDistribution(m, grid, _pointwise_masses(density))


# ---------------------------------------------------------------------------
# Exact state preparation (uniformly controlled RY tree)
# ---------------------------------------------------------------------------

def exact_state_prep(dist: DiscretizedDistribution, qubits=None) -> Circuit:
    """Circuit mapping |0..0> to sum_i sqrt(p(i)) |i> (real, nonnegative).

    Level k rotates qubit k by the branch angle of each k-bit prefix, giving
    the usual binary-tree amplitude loading.  Each level is one ``ucry``
    gate with k controls and 2**k angles, m gates in all; lowered to RY and
    CNOT it is 3 * (2**m - 1) - 2m gates.
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
        circ.ucry(qubits[:k], qubits[k], angles)
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
        if self.layers < 1:
            raise ValueError(f"an ansatz needs layers >= 1, got {self.layers}")
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
            if epochs <= 0 or not (math.isfinite(lr) and lr > 0):
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


# -- fused evaluation ---------------------------------------------------------
# Each layer is one dense matrix per chunk of at most CHUNK_QUBITS consecutive
# qubits (the chunk's RZ-RY-RZ rotations multiplied out) and one basis-index
# permutation for the CNOT chain, so a state costs one matmul per chunk and
# one gather per layer.  The gradient reuses the states of one forward sweep
# in one reverse sweep instead of simulating 2P+1 shifted circuits.

CHUNK_QUBITS = 5


def _layer_unitaries(m: int, layers: int, params: np.ndarray) -> np.ndarray:
    """RZ(c) RY(b) RZ(a) of every (layer, qubit) as one 2x2: (layers, m, 2, 2)."""
    theta = params.reshape(layers, m, 3)
    a, b, c = theta[..., 0], theta[..., 1], theta[..., 2]
    cos, sin = np.cos(b / 2), np.sin(b / 2)
    plus, minus = np.exp(0.5j * (a + c)), np.exp(0.5j * (a - c))
    u = np.empty((layers, m, 2, 2), dtype=np.complex128)
    u[..., 0, 0] = cos / plus
    u[..., 0, 1] = -sin * minus
    u[..., 1, 0] = sin / minus
    u[..., 1, 1] = cos * plus
    return u


def _chunk_sizes(m: int) -> list[int]:
    """2**k for each chunk of at most CHUNK_QUBITS consecutive qubits."""
    return [1 << min(CHUNK_QUBITS, m - q0) for q0 in range(0, m, CHUNK_QUBITS)]


def _chunk_bytes(m: int, layers: int) -> int:
    """Bytes of every layer's chunk matrices and overlap blocks."""
    return 2 * layers * 16 * sum(n * n for n in _chunk_sizes(m))


def _kron(u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """u[:, 0] (x) u[:, 1] (x) ... per layer, (layers, k, 2, 2) to (layers,
    2**k, 2**k), into ``out`` if given.  Halving the qubits at each step keeps
    the large products few: five qubits are ((q0 q1) (q2 (q3 q4)))."""
    if u.shape[1] == 1:
        return u[:, 0]
    a, b = _kron(u[:, :u.shape[1] // 2]), _kron(u[:, u.shape[1] // 2:])
    shape = (len(a), a.shape[1], b.shape[1], a.shape[2], b.shape[2])
    product = np.multiply(a[:, :, None, :, None], b[:, None, :, None, :],
                          out=None if out is None else out.reshape(shape))
    return product.reshape(len(a), shape[1] * shape[2], -1)


def _chunk_unitaries(u: np.ndarray, out=None) -> list[np.ndarray]:
    """The rotations of each chunk of at most CHUNK_QUBITS consecutive qubits
    as one matrix per layer: (layers, 2**k, 2**k), into ``out``'s arrays
    when given."""
    starts = range(0, u.shape[1], CHUNK_QUBITS)
    return [_kron(u[:, q0:q0 + CHUNK_QUBITS], None if out is None else out[i])
            for i, q0 in enumerate(starts)]


def _epoch_buffers(m: int, layers: int) -> tuple[list, list]:
    """An epoch's chunk matrices and overlap blocks, allocated once a training:
    freed each epoch, their pages could go back to the system and fault in
    again (72 faults an epoch, a third of its time, at m = 5 with 10 layers)."""
    return tuple([np.empty((layers, n, n), np.complex128) for n in _chunk_sizes(m)]
                 for _ in range(2))


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@functools.lru_cache(maxsize=1)
def _cnot_chain(m: int) -> tuple[np.ndarray, np.ndarray]:
    """The CNOT chain q -> q+1 as a gather and its inverse: it maps ``state``
    to ``state[gather]``, and ``state[scatter]`` undoes it.

    The chain leaves bit q of the index holding the XOR of bits 0..q (qubit 0
    is the most significant bit), so output index y reads input y ^ (y >> 1).
    Built once per m; both arrays are read-only.
    """
    index = np.arange(1 << m)
    gather = index ^ (index >> 1)
    scatter = np.empty_like(gather)
    scatter[gather] = index
    return _read_only(gather), _read_only(scatter)


@functools.lru_cache(maxsize=None)
def _trace_table(k: int) -> np.ndarray:
    """Flat positions in a 2**k x 2**k block of row (x a y), column (x b y)
    for each qubit j of the chunk, with x the j bits above it and y the
    k - 1 - j bits below: shape (2**(k-1), k, 2, 2), indexed [(x y), j, a, b].
    Summing a block's entries at the table over the first axis is its
    partial trace down to each qubit, so
    ``block.reshape(layers, -1).take(table, axis=1).sum(1)`` reads every
    qubit's 2x2 overlap in one gather.  The summed axis leads, so the sum
    adds whole rows instead of reducing many short runs one by one."""
    size = 1 << k
    low = 1 << np.arange(k - 1, -1, -1)[:, None, None]     # qubit j's bit
    rest = np.arange(size >> 1)[:, None, None, None]
    base = (rest // low) * (2 * low) + rest % low           # index (x 0 y)
    a, b = np.arange(2)[:, None], np.arange(2)[None, :]
    return _read_only((base + a * low) * size + base + b * low)


def _rotate(state: np.ndarray, mats) -> np.ndarray:
    """Apply each chunk's matrix to its qubits of a flat state, in order."""
    prefix = 1
    for mat in mats:
        state = np.matmul(mat, state.reshape(prefix, len(mat), -1)).reshape(-1)
        prefix *= len(mat)
    return state


def _forward(chunks: list[np.ndarray], gather: np.ndarray):
    """Ansatz state from |0..0>, and the state after each layer's rotations."""
    rotated = np.empty((len(chunks[0]), gather.size), dtype=np.complex128)
    state = np.zeros(gather.size, dtype=np.complex128)
    state[0] = 1.0
    for layer, mats in enumerate(zip(*chunks)):
        rotated[layer] = state = _rotate(state, mats)
        state = state[gather]
    return state, rotated


def _chunk_rows(state: np.ndarray, prefix: int, size: int) -> np.ndarray:
    """The state as a (size, rest) matrix whose row is the chunk's index.
    The first chunk needs no transpose, so its rows are one reshape where
    the others take three view calls, twice per layer of the reverse sweep."""
    if prefix == 1:
        return state.reshape(size, -1)
    return state.reshape(prefix, size, -1).swapaxes(0, 1).reshape(size, -1)


def ansatz_probs(ansatz: VariationalAnsatz) -> np.ndarray:
    u = _layer_unitaries(ansatz.m, ansatz.layers, ansatz.params)
    state, _ = _forward(_chunk_unitaries(u), _cnot_chain(ansatz.m)[0])
    return np.abs(state) ** 2


def ansatz_cost(ansatz: VariationalAnsatz, target: DiscretizedDistribution) -> float:
    """L1 distance between the circuit's output distribution and the target."""
    if ansatz.m != target.m:
        raise ValueError(f"ansatz m={ansatz.m} vs target m={target.m}")
    return float(np.abs(ansatz_probs(ansatz) - target.masses).sum())


def _rotation_gradient(theta: np.ndarray, overlap: np.ndarray) -> np.ndarray:
    """dC/d(a, b, c) of every RZ(c) RY(b) RZ(a) from its qubit's 2x2 overlap
    M: (layers, m, 3) angles and (layers, m, 2, 2) overlaps to (layers, m, 3).
    The closed forms are derived in ``_cost_and_gradient``'s docstring."""
    phase = np.exp(1j * theta[..., 2])
    diag = overlap[..., 0, 0] - overlap[..., 1, 1]
    lower, upper = phase * overlap[..., 1, 0], phase.conj() * overlap[..., 0, 1]
    grad = np.empty(theta.shape)
    grad[..., 0] = (np.cos(theta[..., 1]) * diag
                    + np.sin(theta[..., 1]) * (upper + lower)).imag
    grad[..., 1] = (lower - upper).real
    grad[..., 2] = diag.imag
    return grad


def _cost_and_gradient(m, layers, params, target_masses, buffers=None):
    """Cost plus its exact gradient from one forward and one reverse sweep.

    The L1 cost C = sum_i |p_i - t_i| has dC/d theta = 2 Re <lambda| d psi/d theta>
    with lambda = sign(p - t) * psi.  The reverse sweep carries lambda back
    through the circuit (Jones and Gacon 2020, arXiv:2009.02823).  At layer l
    it meets r, the stored state after that layer's rotations, and the angle
    k of qubit q contributes 2 Re sum_ab G_k[a, b] M_q[a, b], where
    G_k = (dU/d theta_k) U^+ and M_q[a, b] sums conj(lambda)[..a..] r[..b..]
    over the other qubits.  The sweep keeps, per layer and chunk, the block
    B[A, B] that sums conj(lambda)[..A..] r[..B..] over the qubits outside
    the chunk; every M_q of the chunk is then read from B in one gather
    through the chunk's ``_trace_table``.

    With U = RZ(c) RY(b) RZ(a), G_c = -iZ/2, G_b = RZ(c) (-iY/2) RZ(c)^+ and
    G_a = U (-iZ/2) U^+ = (-i/2) [[cos b, sin b e^-ic], [sin b e^ic, -cos b]],
    so the three derivatives are, in closed form,

        dC/dc = Im(M00 - M11),
        dC/db = Re(e^ic M10 - e^-ic M01),
        dC/da = Im(cos b (M00 - M11) + sin b (e^-ic M01 + e^ic M10)).

    This equals the parameter-shift rule (p(theta + pi/2) - p(theta - pi/2)) / 2
    exactly, up to rounding.  Hardware cannot store states, so there the
    gradient would come from the shifted circuits.
    """
    u = _layer_unitaries(m, layers, params)
    chunk_out, blocks = buffers or _epoch_buffers(m, layers)
    chunks = _chunk_unitaries(u, chunk_out)
    gather, scatter = _cnot_chain(m)
    state, rotated = _forward(chunks, gather)
    residual = np.abs(state) ** 2 - target_masses
    cost = float(np.abs(residual).sum())
    # The sweep carries bra = conj(lambda), which U^+ maps to U^T bra, so the
    # chunk matrices' transposes serve and no adjoint is built.
    chunks_t = [mat.swapaxes(-1, -2) for mat in chunks]
    bra = np.sign(residual) * state.conj()
    for layer in range(layers - 1, -1, -1):
        bra = bra[scatter]
        prefix = 1
        for block in blocks:
            size = block.shape[-1]
            np.matmul(_chunk_rows(bra, prefix, size),
                      _chunk_rows(rotated[layer], prefix, size).T,
                      out=block[layer])
            prefix *= size
        bra = _rotate(bra, [mat[layer] for mat in chunks_t])
    tables = [_trace_table(block.shape[-1].bit_length() - 1) for block in blocks]
    overlap = np.concatenate([block.reshape(layers, -1).take(table, axis=1).sum(1)
                              for block, table in zip(blocks, tables)], axis=1)
    return cost, _rotation_gradient(params.reshape(layers, m, 3), overlap).reshape(-1)


def train_ansatz(target: DiscretizedDistribution, layers: int,
                 schedule: TrainingSchedule) -> tuple[VariationalAnsatz, np.ndarray]:
    """Fit the ansatz distribution to ``target`` by plain gradient descent.

    Parameters start at seeded uniform values in [-0.1, 0.1].  Returns the
    trained ansatz and the per-epoch cost trace (deterministic given seed).
    Before anything is allocated, one memory check counts the training's
    peak: the (layers + 1) states of 16 * 2**m bytes that the reverse sweep
    keeps and five more for an epoch's temporaries, the chunk matrices and
    overlap blocks (two 2**k x 2**k complex arrays per layer and chunk), the
    cost trace of 8 bytes per epoch, and 1 MiB.
    """
    if layers < 1:
        raise ValueError(f"need at least one layer, got {layers}")
    m = target.m
    # the part that does not scale with 2**m, in units of 2**m rounded up,
    # so that a huge m is refused from its exponent
    fixed = _chunk_bytes(m, layers) + 8 * schedule.total_epochs() + (1 << 20)
    check_memory(f"training m={m} with {layers} layers",
                 (layers + 1 + 5) * 16 + -(-fixed >> m), m)
    rng = np.random.default_rng(schedule.seed)
    params = rng.uniform(-0.1, 0.1, size=VariationalAnsatz.num_params(m, layers))
    trace = np.empty(schedule.total_epochs())
    buffers = _epoch_buffers(m, layers)
    epoch = 0
    for epochs, lr in schedule.stages:
        for _ in range(epochs):
            cost, grad = _cost_and_gradient(m, layers, params, target.masses,
                                            buffers)
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
    for key in ("m", "layers"):
        if key not in meta:
            raise ValueError(f"{path} header has no {key}= entry")
    m, layers = int(meta["m"]), int(meta["layers"])
    return VariationalAnsatz(m, layers, params), meta
