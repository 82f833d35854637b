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
simulates the ``(block, repeats)`` segments of ``phase_estimation`` gate by
gate; the test suite pins the two against each other and against a
brute-force oracle.  The resource counts in ``bench`` lower the same
segments, so what is counted is what is simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .sim import (
    Circuit,
    Gate,
    apply_circuit,
    apply_segments,
    check_memory,
    init_state,
    probabilities,
)
from .circuits import bit_reversal_permutation, inverse_qft
from .distributions import (
    VariationalAnsatz,
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


def build_R_exact(rv: RandomVariableSpec) -> Circuit:
    """Rotate the ancilla to sqrt(f(i))|1> per register basis state i.

    The 2**k values fix the register: wires 0..k-1, with the ancilla on wire
    k.  One native uniformly controlled RY (``ucry``) with branch angles
    2*arcsin(sqrt(f(i))): exact at any grid size and simulated in one pass
    over the state, but 3 * 2**k - 2 RY and CNOT gates once lowered (a
    simulation reference route, not a hardware-honest circuit).
    """
    size = rv.values.size
    k = size.bit_length() - 1
    if rv.values.shape != (size,) or k < 1 or size != 1 << k:
        raise ValueError(f"need 2**k values for a register of k >= 1 qubits, "
                         f"got {rv.values.shape}")
    angles = 2.0 * np.arcsin(np.sqrt(np.clip(rv.values, 0.0, 1.0)))
    return Circuit(k + 1).ucry(range(k), k, angles)


def build_R_linear(m: int, params: LinearRParams) -> Circuit:
    """Controlled-RY cascade encoding the linear ramp a*i + b on the ancilla.

    The register is wires 0..m-1 and the ancilla wire m.
    P(ancilla=1 | i) = sin^2(a*i + b + pi/4), which approximates
    (a*i + b) + 1/2 once c_s is small.  Register qubit k (most significant
    first) contributes rotation angle 2**(m-k) * a in the half-angle
    convention used by the simulator's RY.
    """
    circ = Circuit(m + 1)
    circ.ry(m, math.pi / 2)
    circ.ry(m, 2.0 * params.b)
    for k in range(m):
        circ.cry(k, m, 2 ** (m - k) * params.a)
    return circ


def build_F(a_circuit: Circuit, r_circuit: Circuit) -> Circuit:
    """Problem unitary: state preparation followed by the ancilla rotation,
    whose register must be the preparation's, with the ancilla after it."""
    if r_circuit.num_qubits != a_circuit.num_qubits + 1:
        raise ValueError(f"a rotation stage on {r_circuit.num_qubits} qubits does "
                         f"not fit a {a_circuit.num_qubits}-qubit register")
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


def build_controlled_Q(f_circuit: Circuit, control: int,
                       f_inv: Circuit | None = None) -> Circuit:
    """Controlled Grover operator without a controlled version of F.

    Only the two reflections need the control: controlled-V collapses to a CZ
    between the control and the ancilla, and the zero reflection gains the
    control as one more MCX control.  With the control off, the F / F^dag
    pairs cancel to the identity.  ``f_inv``, F's inverse if given, lets
    several blocks share its gates.
    """
    system = list(range(f_circuit.num_qubits))
    ancilla = system[-1]
    if control in system:
        raise ValueError(f"control qubit {control} overlaps the encoding register")
    f_inv = f_circuit.inverse() if f_inv is None else f_inv
    # every gate lies on F's wires or the control, so none is checked again
    half = [Gate("cz", (ancilla,), (control,)), *f_inv.gates,
            *_zero_reflection_gates(system, control=control), *f_circuit.gates]
    return Circuit(max(system + [control]) + 1, half * 2)


def phase_estimation(f_circuit: Circuit, n: int) -> list[tuple[Circuit, int]]:
    """The estimation circuit as ``[(block, repeats), ...]``, in order.

    F followed by the H layer once; for each estimation qubit k, the block
    ``build_controlled_Q(f, est[k])`` repeated 2**(n-1-k) times, for 2**n - 1
    oracle applications in total; then the inverse QFT once.  Every block
    spans the s wires of F followed by the n estimation wires; each
    controlled zero reflection is one MCX with s controls, so lowering it
    needs s - 2 clean work wires besides these.  The blocks share one inverse
    of F.  Controlled-Q block k touches no estimation wire but est[k], so it
    is block 0 with wires est[0] and est[k] exchanged, gate for gate.  The
    ``circuit`` method simulates these segments; ``bench`` counts them and
    relies on that exchange.
    """
    if n < 1:
        raise ValueError(f"need at least one estimation qubit, got {n}")
    s = f_circuit.num_qubits
    est = list(range(s, s + n))
    prep = Circuit(s + n).extend(f_circuit)
    for q in est:
        prep.h(q)
    f_inv = f_circuit.inverse()
    return ([(prep, 1)]
            + [(Circuit(s + n, build_controlled_Q(f_circuit, est[k], f_inv).gates),
                2 ** (n - 1 - k)) for k in range(n)]
            + [(inverse_qft(est), 1)])


# ---------------------------------------------------------------------------
# Readout
# ---------------------------------------------------------------------------


def extract_theta(distribution: np.ndarray) -> float:
    """Most probable phase on the left half [0, 1/2] of [0, 1].

    The output distribution is symmetric about 1/2, and the readout always
    takes the left peak, so an encoded p1 above 1/2 (phase above 1/2) reads
    back folded, as 1 - mu.  Ties break toward smaller theta.
    """
    dist = np.asarray(distribution, dtype=float)
    size = dist.size
    if abs(dist.sum() - 1.0) > 1e-9:
        raise ValueError("distribution must sum to 1")
    return int(np.argmax(dist[: size // 2 + 1])) / size


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

# An exact s = dims*m + 1 qubit F is s native gates, but it allocates as
# 2**s: the statevector with a working copy and multiplexor temporaries, the
# angles as Python floats (about 32 B each, some 2**s of them) and the values
# grid.  tracemalloc measured 86-115 B per amplitude at s = 13-17; QMCConfig
# checks 128, so s = 23 fits (`run neoclassical --m 22 --n 4`: 873 MB RSS).
# The spectral readout, run once F is freed, holds 3.125 float64 arrays of
# 2**n, checked as four, so n = 25 fits (`--m 22 --n 25`: 954 MB RSS).


@dataclass
class QMCConfig:
    dims: int = 1
    m: int = 5
    n: int = 6
    r_mode: str = "exact"          # "exact" | "linear"
    a_mode: str = "exact_prep"     # "exact_prep" | "trained_ansatz"
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
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        # Fail before anything sized by the registers is allocated.
        s = self.dims * self.m + 1
        check_memory(f"an F register of {s} qubits", 128 * (1 << s))
        check_memory(f"a readout of {self.n} estimation qubits", 32 * (1 << self.n))


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


def assemble_f(dists, rv: RandomVariableSpec,
               ansatz: VariationalAnsatz | None = None,
               linear: LinearRParams | None = None) -> Circuit:
    """F on one register per distribution plus the ancilla (last wire).

    The inputs set everything: each register has the common ``m`` of
    ``dists`` and is prepared by ``ansatz`` when one is given, else exactly;
    the ancilla takes the linear cascade of ``linear`` when given, else the
    exact rotation of ``rv``.
    """
    dists = list(dists)
    m = dists[0].m
    if any(d.m != m for d in dists):
        raise ValueError("all distributions must use the same m")
    total_m = len(dists) * m
    a_all = Circuit(total_m)
    for j, dist in enumerate(dists):
        reg = range(j * m, (j + 1) * m)
        a_all.extend(exact_state_prep(dist, reg) if ansatz is None
                     else ansatz_circuit(ansatz, reg))
    if linear is None:
        return build_F(a_all, build_R_exact(rv))
    ramp = np.linspace(0.0, 1.0, 1 << total_m)
    if not np.allclose(rv.values, ramp) and not np.allclose(rv.values, ramp[::-1]):
        raise ValueError("linear encoding requires a variable linear in the grid")
    return build_F(a_all, build_R_linear(total_m, linear))


def _wrap(d: np.ndarray, size: int, scratch: np.ndarray) -> None:
    """d -= size * round(d / size), in place, with ``scratch`` as workspace."""
    np.divide(d, size, out=scratch)
    np.round(scratch, out=scratch)
    scratch *= size
    d -= scratch


def _kernel(theta: float, n: int) -> np.ndarray:
    """|<y| QFT^-1 |phase theta>|^2 for y = 0..2**n-1 (Dirichlet kernel).

    Evaluated as (sin(pi d) / (size sin(pi d / size)))**2 with the integer
    offset d = theta*size - y reduced into [-size/2, size/2]; this form stays
    accurate for large registers where theta*size is a big number.  Every
    step writes into ``d`` or the result, so the kernel holds two float64
    arrays of 2**n and a mask.
    """
    size = 1 << n
    # Split theta and reduce the exact high part modulo the register size
    # before adding the low correction: peak offsets near a wrapped phase
    # would otherwise lose ~size*eps of absolute precision.
    theta_hi = round(theta * (1 << 26)) / (1 << 26)
    theta_lo = theta - theta_hi
    d = np.arange(size, dtype=float)
    np.subtract(theta_hi * size, d, out=d)
    out = np.empty(size)
    _wrap(d, size, out)
    d += theta_lo * size
    _wrap(d, size, out)
    small = np.abs(d, out=out) < 1e-9
    np.sin(np.multiply(d, np.pi, out=out), out=out)
    np.multiply(d, np.pi, out=d)
    d /= size
    np.sin(d, out=d)
    d *= size
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= d        # 0/0 where d is an integer; those are set below
    np.square(out, out=out)
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
    out = _kernel(theta, n)
    out += _kernel(-theta, n)
    out *= 0.5
    return out


def _simulate_distribution(config, f_circuit, n):
    """theta-ordered outcome distribution and the encoded probability p1.

    The ``circuit`` method checks its memory from F and n before any block or
    state is built: five statevectors of 16 * 2**(s + n) bytes (the initial
    state, its working copy, up to three states of multiplexor temporaries),
    32 per gate stored in the segments (F and the H layer; n blocks of twice
    a CZ, F's inverse, a zero reflection of 2s + 3 gates and F; the inverse
    QFT), 64 per multiplexor angle (Python floats, in F and its one inverse)
    and 1 MiB for numpy's buffers and small objects.
    """
    s, f_len = f_circuit.num_qubits, len(f_circuit)
    segments = None
    if config.method == "circuit":
        stored = f_len + n + n * (n + 1) // 2 + n * (4 * f_len + 4 * s + 8)
        angles = sum(len(g.angle) for g in f_circuit.gates if g.kind == "ucry")
        check_memory(f"phase estimation on {s + n} qubits",
                     80 * (1 << (s + n)) + 32 * stored + 64 * angles + (1 << 20))
        segments = phase_estimation(f_circuit, n)
    p1 = float(probabilities(apply_circuit(init_state(s), f_circuit), [s - 1])[1])
    # F's state and gates go before the spectral readout allocates (the
    # caller keeps no reference), so the two memory checks of QMCConfig never
    # overlap; the circuit method's segments keep F's gates, counted above
    del f_circuit
    if segments is None:
        return spectral_distribution(p1, n), p1
    state = apply_segments(init_state(s + n), segments)
    measured = probabilities(state, range(s, s + n))
    return measured[bit_reversal_permutation(n)], p1


def run_qmc(config: QMCConfig, dists, rv: RandomVariableSpec,
            ansatz: VariationalAnsatz | None = None) -> PhaseEstimate:
    """Assemble and run the full estimation pipeline.

    Returns the exact outcome distribution over estimation bitstrings, the
    extracted phase, and the recovered expectation in normalized and original
    units.  ``config`` must describe ``dists``, whose sizes its memory checks
    counted; ``ansatz`` prepares the registers only in the trained-ansatz
    mode.  The linear rotation encoding recomputes its c_s rescaling for the
    configured number of estimation qubits.  The phase is always read from
    the left half of the distribution, so an encoded p1 above 1/2 returns the
    mirrored mean 1 - mu (normalized) without a warning.
    """
    dists = list(dists)
    if len(dists) != config.dims or any(d.m != config.m for d in dists):
        raise ValueError(f"expected {config.dims} distributions of m={config.m}")
    if config.a_mode == "exact_prep":
        ansatz = None
    elif ansatz is None:
        raise ValueError("trained_ansatz mode needs ansatz parameters")
    linear = None
    if config.r_mode == "linear":
        increasing = bool(rv.values[-1] >= rv.values[0])
        linear = LinearRParams.for_oracle_budget(config.m, config.n, increasing)
    distribution, p1 = _simulate_distribution(
        config, assemble_f(dists, rv, ansatz, linear), config.n)
    theta_hat = extract_theta(distribution)
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
