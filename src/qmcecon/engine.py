"""Amplitude-estimation Monte Carlo engine.

Pipeline: a state-preparation circuit loads the discretized distribution(s),
a rotation stage writes the normalized random variable onto an ancilla
(``p1 = P(ancilla=1) = sum_i p(i) f(i)``), and phase estimation of the Grover
operator built from that encoding reads the expectation back out of an
eigenphase.  The readout chain is

    bitstring -> theta = sum_i b_i / 2**i -> mu_norm = (1 - cos(pi theta)) / 2
    -> de-normalized expectation in original units.

Both evaluation paths take p1 from the statevector of the assembled F
circuit.  The production path ("auto") feeds it to the closed-form spectral
readout, which is exact: F|0> splits evenly over the two Grover eigenstates
with phases +-theta, sin^2(pi theta / 2) = p1, so the outcome distribution
of phase estimation depends on p1 alone.  The reference path ("circuit")
simulates the whole phase-estimation circuit gate by gate; the test suite
pins the two against each other and against a brute-force oracle.  The
resource counts in ``bench`` lower that same circuit, so what is counted is
what is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    Gate,
    ResourceLimitError,
    apply_circuit,
    init_state,
    probabilities,
    QUBIT_CAP,
)
from .circuits import bit_reversal_permutation, inverse_qft
from .distributions import (
    VariationalAnsatz,
    _ucry_gates,
    ansatz_circuit,
    exact_state_prep,
)

# ---------------------------------------------------------------------------
# Random-variable normalization
# ---------------------------------------------------------------------------


@dataclass
class RandomVariableSpec:
    """Grid values of the random variable, affinely mapped onto [0, 1].

    ``values`` hold the normalized grid values; ``f_min``/``f_max`` record the
    original-unit extremes so expectations can be mapped back.  A constant
    input degenerates to all-0.5 values with the flag set.
    """

    values: np.ndarray
    f_min: float
    f_max: float
    degenerate: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise ValueError("normalized values must lie in [0, 1]")
        if not self.degenerate and not self.f_min < self.f_max:
            raise ValueError("need f_min < f_max for a non-degenerate variable")

    def original_values(self) -> np.ndarray:
        if self.degenerate:
            return np.full_like(self.values, self.f_min)
        return self.f_min + self.values * (self.f_max - self.f_min)


def normalize_rv(raw_values) -> RandomVariableSpec:
    """Map raw grid values onto [0, 1] via (f - f_min) / (f_max - f_min)."""
    raw = np.asarray(raw_values, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("random-variable values must be finite")
    f_min, f_max = float(raw.min()), float(raw.max())
    if f_max == f_min:
        return RandomVariableSpec(np.full(raw.shape, 0.5), f_min, f_max, True)
    return RandomVariableSpec((raw - f_min) / (f_max - f_min), f_min, f_max)


@dataclass
class LinearRParams:
    """Rescaling of a linear grid function into [-c_s, c_s].

    The ramp over grid index i is f(i) = a*i + b with |a| = 2 c_s / (2**m - 1)
    and b = -sign(a) * c_s: the canonical increasing form maps index 0 to
    -c_s and the top index to +c_s, while a variable that decreases along the
    grid gets the mirrored ramp so its encoded mean stays below one half (the
    phase then sits in the left half of [0, 1], where readout expects it).
    """

    c_s: float
    a: float
    b: float

    def __post_init__(self):
        if not self.c_s > 0:
            raise ValueError(f"c_s must be positive, got {self.c_s}")

    @classmethod
    def for_grid(cls, m: int, c_s: float, increasing: bool = True) -> "LinearRParams":
        sign = 1.0 if increasing else -1.0
        return cls(c_s, sign * 2.0 * c_s / (2**m - 1), -sign * c_s)

    @classmethod
    def for_oracle_budget(cls, m: int, n: int, increasing: bool = True) -> "LinearRParams":
        """c_s = (3 pi / N)**(1/3) with N = 2**n oracle applications, the
        scaling that balances rotation-linearization bias against phase
        resolution."""
        c_s = (3.0 * math.pi / 2**n) ** (1.0 / 3.0)
        return cls.for_grid(m, c_s, increasing)


# ---------------------------------------------------------------------------
# Encoding circuits
# ---------------------------------------------------------------------------


def build_R_exact(rv: RandomVariableSpec, register, ancilla: int) -> Circuit:
    """Rotate the ancilla to sqrt(f(i))|1> per register basis state i.

    Uniformly controlled RY with branch angles 2*arcsin(sqrt(f(i))): exact at
    any grid size, exponential in gate count (simulation reference route).
    """
    register = list(register)
    if rv.values.shape != (1 << len(register),):
        raise ValueError(
            f"register of {len(register)} qubits needs {1 << len(register)} "
            f"values, got {rv.values.shape}"
        )
    angles = 2.0 * np.arcsin(np.sqrt(np.clip(rv.values, 0.0, 1.0)))
    circ = Circuit(max(register + [ancilla]) + 1)
    for g in _ucry_gates(angles, register, ancilla):
        circ.add(g)
    return circ


def build_R_linear(m: int, params: LinearRParams, register, ancilla: int) -> Circuit:
    """Controlled-RY cascade encoding the linear ramp a*i + b on the ancilla.

    P(ancilla=1 | i) = sin^2(a*i + b + pi/4), which approximates
    (a*i + b) + 1/2 once c_s is small.  Register qubit k (most significant
    first) contributes rotation angle 2**(m-k) * a in the half-angle
    convention used by the simulator's RY.
    """
    register = list(register)
    if len(register) != m:
        raise ValueError(f"expected {m} register qubits, got {register}")
    circ = Circuit(max(register + [ancilla]) + 1)
    circ.ry(ancilla, math.pi / 2)
    circ.ry(ancilla, 2.0 * params.b)
    for k, q in enumerate(register):
        circ.cry(q, ancilla, 2 ** (m - k) * params.a)
    return circ


def build_F(a_circuit: Circuit, r_circuit: Circuit) -> Circuit:
    """Problem unitary: state preparation followed by the ancilla rotation."""
    if r_circuit.num_qubits < a_circuit.num_qubits + 1:
        raise ValueError(
            "rotation stage must cover the preparation register plus ancilla"
        )
    circ = Circuit(r_circuit.num_qubits)
    circ.extend(a_circuit)
    circ.extend(r_circuit)
    return circ


# ---------------------------------------------------------------------------
# Grover operator and its controlled form
# ---------------------------------------------------------------------------


def _ancilla_z_gates(ancilla: int):
    # Pauli-Z with no global-phase slop: H X H = Z exactly.
    yield Gate("h", (ancilla,))
    yield Gate("x", (ancilla,))
    yield Gate("h", (ancilla,))


def _zero_reflection_gates(system: list[int], control: int | None = None):
    """Phase -1 on |0...0> of ``system`` (optionally controlled).

    X-conjugation moves the reflection to |1...1>, where it is an H-framed
    multi-controlled X targeting the last system wire: one native MCX gate,
    which the simulator applies directly and ``circuits.lower_gates`` turns
    into a Toffoli ladder on the work wires it is given.
    """
    target = system[-1]
    controls = tuple(system[:-1])
    if control is not None:
        controls = (control,) + controls
    for q in system:
        yield Gate("x", (q,))
    yield Gate("h", (target,))
    yield Gate("mcx", (target,), controls)
    yield Gate("h", (target,))
    for q in system:
        yield Gate("x", (q,))


def grover_operator(f_circuit: Circuit) -> Circuit:
    """Q = (F Z0 F^dag V)^2 as an explicit circuit.

    V is Pauli-Z on the ancilla (last F wire); Z0 reflects about the system
    all-zeros state.  Exact including global phase, so dense eigenphases can
    be read off directly.
    """
    system = list(range(f_circuit.num_qubits))
    ancilla = system[-1]
    circ = Circuit(len(system))
    f_inv = f_circuit.inverse()
    for _ in range(2):
        circ.extend(_ancilla_z_gates(ancilla))
        circ.extend(f_inv)
        circ.extend(_zero_reflection_gates(system))
        circ.extend(f_circuit)
    return circ


def build_controlled_Q(f_circuit: Circuit, control: int) -> Circuit:
    """Controlled Grover operator without a controlled version of F.

    Only the two reflections need the control: controlled-V collapses to a CZ
    between the control and the ancilla, and the zero reflection gains the
    control as one more MCX control.  With the control off, the F / F^dag
    pairs cancel to the identity.
    """
    system = list(range(f_circuit.num_qubits))
    ancilla = system[-1]
    if control in system:
        raise ValueError(f"control qubit {control} overlaps the encoding register")
    circ = Circuit(max(system + [control]) + 1)
    f_inv = f_circuit.inverse()
    for _ in range(2):
        circ.cz(control, ancilla)
        circ.extend(f_inv)
        circ.extend(_zero_reflection_gates(system, control=control))
        circ.extend(f_circuit)
    return circ


def phase_estimation(f_circuit: Circuit, n: int) -> Circuit:
    """Full estimation circuit: F, controlled Grover powers, inverse QFT.

    Estimation qubit k controls Q^(2**(n-1-k)) applied as that many
    sequential controlled-Q blocks, for 2**n - 1 oracle applications in
    total.  The circuit has the s wires of F followed by the n estimation
    wires; each controlled zero reflection is one MCX with s controls, so
    lowering it needs s - 2 clean work wires besides these.  The circuit is
    simulated as it is and counted after lowering.
    """
    if n < 1:
        raise ValueError(f"need at least one estimation qubit, got {n}")
    s = f_circuit.num_qubits
    est = list(range(s, s + n))
    nq = s + n
    if nq > QUBIT_CAP:
        raise ResourceLimitError(
            f"phase estimation needs {nq} qubits, exceeding the cap of {QUBIT_CAP}"
        )
    circ = Circuit(nq)
    circ.metadata.update(est_qubits=est, oracle_calls=2**n - 1)
    circ.extend(f_circuit)
    for q in est:
        circ.h(q)
    for k in range(n):
        block = build_controlled_Q(f_circuit, est[k])
        for _ in range(2 ** (n - 1 - k)):
            circ.extend(block)
    circ.extend(inverse_qft(est))
    return circ


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------


def extract_theta(distribution: np.ndarray, side: str = "left") -> float:
    """Most probable phase on the requested half of [0, 1].

    The output distribution is symmetric about 1/2, so the caller picks the
    side the true phase is known to be on.  Ties break toward smaller theta.
    """
    dist = np.asarray(distribution, dtype=float)
    size = dist.size
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must sum to 1")
    half = size // 2
    if side == "left":
        idx = int(np.argmax(dist[: half + 1]))
    elif side == "right":
        idx = half + int(np.argmax(dist[half:]))
    else:
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return idx / size


def theta_to_mu(theta: float) -> float:
    """mu = (1 - cos(pi theta)) / 2, monotone increasing on [0, 1]."""
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    return (1.0 - math.cos(math.pi * theta)) / 2.0


def denormalize_mu(mu_norm: float, rv: RandomVariableSpec,
                   linear: LinearRParams | None = None) -> float:
    """Map a normalized estimate back to original units.

    Exact encoding: invert the [0, 1] normalization through f_min/f_max.
    Linear encoding: P1 tracks E[f] + 1/2 on the [-c_s, c_s] ramp, so first
    recover the mean normalized grid position, then evaluate the (linear)
    variable there through its recorded endpoint values.
    """
    if not 0.0 <= mu_norm <= 1.0:
        raise ValueError(f"mu_norm must be in [0, 1], got {mu_norm}")
    if rv.degenerate:
        return rv.f_min
    if linear is None:
        return rv.f_min + mu_norm * (rv.f_max - rv.f_min)
    mean_f = mu_norm - 0.5
    # mean grid fraction i/(2**m - 1), valid for either ramp direction
    mean_u = (mean_f - linear.b) / (linear.a * (rv.values.size - 1))
    originals = rv.original_values()
    return float(originals[0] + mean_u * (originals[-1] - originals[0]))


# ---------------------------------------------------------------------------
# Assembly and simulation
# ---------------------------------------------------------------------------

# Exact state preparation and the exact encoding emit about 1.5 * 2**s Gate
# objects for an s = dims*m + 1 qubit F, about 160 B each (stress m = 6, 7,
# 8: 12,640 / 49,884 / 198,104 gates, 1.9 / 7.7 / 30.2 MiB); 22 qubits is
# about 1 GiB of gates.
F_REGISTER_CAP = 22
# The spectral readout peaks at about 6.3 * 8 B * 2**n (measured at n = 18,
# 20 and 22): 1.7 GB at 25 qubits, while 27 would not fit in 7 GiB.
ESTIMATION_REGISTER_CAP = 25


@dataclass
class QMCConfig:
    dims: int = 1
    m: int = 5
    n: int = 6
    r_mode: str = "exact"          # "exact" | "linear"
    a_mode: str = "exact_prep"     # "exact_prep" | "trained_ansatz"
    theta_side: str = "left"
    method: str = "auto"           # "auto" (spectral readout) | "circuit" (reference)

    def __post_init__(self):
        if self.r_mode not in ("exact", "linear"):
            raise ValueError(f"unknown r_mode {self.r_mode!r}")
        if self.a_mode not in ("exact_prep", "trained_ansatz"):
            raise ValueError(f"unknown a_mode {self.a_mode!r}")
        if self.method not in ("auto", "circuit"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.r_mode == "linear" and self.dims != 1:
            raise ValueError("the linear encoding handles one dimension only")
        # Fail before anything sized by the registers is allocated.
        for name, qubits, cap in (
                ("F register", self.dims * self.m + 1, F_REGISTER_CAP),
                ("estimation register", self.n, ESTIMATION_REGISTER_CAP)):
            if qubits > cap:
                raise ResourceLimitError(
                    f"{name} needs {qubits} qubits, exceeding the cap of {cap}"
                )


@dataclass
class PhaseEstimate:
    """Exact outcome distribution of the estimation register plus readout."""

    distribution: np.ndarray
    theta_hat: float
    mu_normalized: float
    mu: float
    n: int
    oracle_calls: int
    p1: float | None = None

    def __post_init__(self):
        total = float(np.sum(self.distribution))
        if abs(total - 1.0) > 1e-10:
            raise ValueError(f"distribution sums to {total}, expected 1")


def _a_circuits(config: QMCConfig, dists, ansatz: VariationalAnsatz | None):
    circs = []
    for j, dist in enumerate(dists):
        reg = list(range(j * config.m, (j + 1) * config.m))
        if config.a_mode == "exact_prep":
            circs.append(exact_state_prep(dist, reg))
        else:
            if ansatz is None:
                raise ValueError("trained_ansatz mode needs ansatz parameters")
            circs.append(ansatz_circuit(ansatz, reg))
    return circs


def assemble_f(config: QMCConfig, dists, rv: RandomVariableSpec,
               ansatz: VariationalAnsatz | None = None,
               linear: LinearRParams | None = None) -> Circuit:
    """F circuit on dims*m register qubits plus the ancilla (last wire)."""
    dists = list(dists)
    if len(dists) != config.dims:
        raise ValueError(f"expected {config.dims} distributions, got {len(dists)}")
    if any(d.m != config.m for d in dists):
        raise ValueError("all distributions must use m qubits")
    total_m = config.dims * config.m
    ancilla = total_m
    a_all = Circuit(total_m)
    for c in _a_circuits(config, dists, ansatz):
        a_all.extend(c)
    if config.r_mode == "exact":
        if rv.values.shape != (1 << total_m,):
            raise ValueError(
                f"random variable needs {1 << total_m} grid values, "
                f"got {rv.values.shape}"
            )
        r_circ = build_R_exact(rv, list(range(total_m)), ancilla)
    else:
        if linear is None:
            raise ValueError("linear mode needs LinearRParams")
        ramp = np.linspace(0.0, 1.0, 1 << total_m)
        if not np.allclose(rv.values, ramp) and not np.allclose(rv.values, ramp[::-1]):
            raise ValueError("linear encoding requires a variable linear in the grid")
        r_circ = build_R_linear(total_m, linear, list(range(total_m)), ancilla)
    return build_F(a_all, r_circ)


def _kernel(theta: float, n: int) -> np.ndarray:
    """|<y| QFT^-1 |phase theta>|^2 for y = 0..2**n-1 (Dirichlet kernel).

    Evaluated as (sin(pi d) / (size sin(pi d / size)))**2 with the integer
    offset d = theta*size - y reduced into [-size/2, size/2]; this form stays
    accurate for large registers where theta*size is a big number.
    """
    size = 1 << n
    # Split theta and reduce the exact high part modulo the register size
    # before adding the low correction: peak offsets near a wrapped phase
    # would otherwise lose ~size*eps of absolute precision.
    theta_hi = round(theta * (1 << 26)) / (1 << 26)
    theta_lo = theta - theta_hi
    d = theta_hi * size - np.arange(size, dtype=float)
    d -= size * np.round(d / size)
    d += theta_lo * size
    d -= size * np.round(d / size)
    out = np.empty(size)
    small = np.abs(d) < 1e-9
    num = np.sin(np.pi * d[~small])
    den = size * np.sin(np.pi * d[~small] / size)
    out[~small] = (num / den) ** 2
    out[small] = 1.0
    return out


def spectral_distribution(p1: float, n: int) -> np.ndarray:
    """Exact estimation-register distribution from the encoded probability.

    The input state splits evenly over the two Grover eigenstates with
    phases +-theta, so the output is the half/half mix of their phase
    kernels.  Valid for any F; pinned against the circuit simulation in the
    tests.
    """
    theta = math.acos(max(-1.0, min(1.0, 1.0 - 2.0 * p1))) / math.pi
    return 0.5 * (_kernel(theta, n) + _kernel(-theta, n))


def _simulate_distribution(config, f_circuit, n):
    """theta-ordered outcome distribution and the encoded probability p1."""
    chi = apply_circuit(init_state(f_circuit.num_qubits), f_circuit)
    p1 = float(probabilities(chi, [f_circuit.num_qubits - 1])[1])
    if config.method == "auto":
        return spectral_distribution(p1, n), p1
    circ = phase_estimation(f_circuit, n)
    state = apply_circuit(init_state(circ.num_qubits), circ)
    measured = probabilities(state, circ.metadata["est_qubits"])
    return measured[bit_reversal_permutation(n)], p1


def run_qmc(config: QMCConfig, dists, rv: RandomVariableSpec,
            ansatz: VariationalAnsatz | None = None) -> PhaseEstimate:
    """Assemble and run the full estimation pipeline.

    Returns the exact outcome distribution over estimation bitstrings, the
    extracted phase, and the recovered expectation in normalized and original
    units.  The linear rotation encoding recomputes its c_s rescaling for the
    configured number of estimation qubits.
    """
    dists = list(dists)
    linear = None
    if config.r_mode == "linear":
        increasing = bool(rv.values[-1] >= rv.values[0])
        linear = LinearRParams.for_oracle_budget(config.m, config.n, increasing)
    f_circuit = assemble_f(config, dists, rv, ansatz, linear)
    distribution, p1 = _simulate_distribution(config, f_circuit, config.n)
    theta_hat = extract_theta(distribution, config.theta_side)
    mu_norm = theta_to_mu(theta_hat)
    mu = denormalize_mu(mu_norm, rv, linear)
    return PhaseEstimate(
        distribution=distribution,
        theta_hat=theta_hat,
        mu_normalized=mu_norm,
        mu=mu,
        n=config.n,
        oracle_calls=2**config.n - 1,
        p1=p1,
    )
