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
of phase estimation depends on p1 alone.  It reads theta_hat from that
distribution at four outcomes, the grid points next to +-theta, and builds
the whole 2**n array only when a caller reads it.  The reference path
("circuit") builds each Q^y F|0> of the state (1/sqrt(M)) sum_y |y> Q^y F|0>
before the inverse QFT by applying the Grover operator on F's wires, gate
by gate, and then runs the inverse QFT gate by gate; the controlled blocks
and the H layer of the estimation circuit (see ``bench.resource_rows``) are
not simulated.  The tests pin both paths against a brute-force oracle.
``bench`` counts F, controlled-Q block 0 and the inverse QFT.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .sim import (
    Circuit,
    Gate,
    StateVector,
    apply_circuit,
    check_memory,
    init_state,
    probabilities,
)
from .circuits import inverse_qft
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
    input has ``f_min == f_max`` and all-0.5 values, and maps back to f_min.
    """

    values: np.ndarray
    f_min: float
    f_max: float

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if np.any(self.values < -1e-12) or np.any(self.values > 1 + 1e-12):
            raise ValueError("normalized values must lie in [0, 1]")
        if not self.f_min <= self.f_max:
            raise ValueError("need f_min <= f_max")


def normalize_rv(raw_values) -> RandomVariableSpec:
    """Map raw grid values onto [0, 1] via (f - f_min) / (f_max - f_min)."""
    raw = np.asarray(raw_values, dtype=float)
    if not np.all(np.isfinite(raw)):
        raise ValueError("random-variable values must be finite")
    f_min, f_max = float(raw.min()), float(raw.max())
    if f_max == f_min:
        return RandomVariableSpec(np.full(raw.shape, 0.5), f_min, f_max)
    return RandomVariableSpec((raw - f_min) / (f_max - f_min), f_min, f_max)


@dataclass
class LinearRParams:
    """Rescaling of a linear grid function into [-c_s, c_s].

    The ramp over grid index i is f(i) = a*i + b with |a| = 2 c_s / (2**m - 1)
    and b = -sign(a) * c_s: the canonical increasing form maps index 0 to
    -c_s and the top index to +c_s, while a variable that decreases along the
    grid gets the mirrored ramp so its encoded mean stays below one half (the
    phase then sits in the left half of [0, 1], where readout expects it).
    ``for_oracle_budget`` reads m and the direction from the variable;
    ``for_grid`` takes them, with any c_s, as given.
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
    def for_oracle_budget(cls, rv: RandomVariableSpec, n: int) -> "LinearRParams":
        """The ramp for ``rv`` on its 2**m grid points, with c_s = (3 pi /
        N)**(1/3) for N = 2**n oracle applications, the scaling that balances
        rotation-linearization bias against phase resolution."""
        c_s = (3.0 * math.pi / 2**n) ** (1.0 / 3.0)
        m = rv.values.size.bit_length() - 1
        return cls.for_grid(m, c_s, bool(rv.values[-1] >= rv.values[0]))


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


# ---------------------------------------------------------------------------
# Grover operator
# ---------------------------------------------------------------------------


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


def grover_operator(f_circuit: Circuit, control: int | None = None) -> Circuit:
    """Q = (F Z0 F^dag V)^2 on F's wires, or controlled-Q with ``control``.

    V is Pauli-Z on the ancilla (last F wire); Z0 reflects about the system
    all-zeros state.  Exact including global phase, so dense eigenphases can
    be read off directly.  Controlled-Q needs no controlled F: only the two
    reflections take the control, V as a CZ between the control and the
    ancilla and Z0 as one more MCX control, and with the control off the
    F / F^dag pairs cancel to the identity.  Those are the only gates on the
    control, so the same arithmetic runs on the control-on half of a state
    as Q runs on F's wires alone.
    """
    system = list(range(f_circuit.num_qubits))
    ancilla = system[-1]
    if control in system:
        raise ValueError(f"control qubit {control} overlaps the encoding register")
    v = (Gate("z", (ancilla,)) if control is None
         else Gate("cz", (ancilla,), (control,)))
    # every gate lies on F's wires or the control, so none is checked again
    half = [v, *f_circuit.inverse().gates,
            *_zero_reflection_gates(system, control), *f_circuit.gates]
    return Circuit(len(system) if control is None else control + 1, half * 2)


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
    if linear is None:
        return rv.f_min + mu_norm * (rv.f_max - rv.f_min)
    mean_f = mu_norm - 0.5
    # mean grid fraction i/(2**m - 1), valid for either ramp direction
    mean_u = (mean_f - linear.b) / (linear.a * (rv.values.size - 1))
    first, last = rv.f_min + rv.values[[0, -1]] * (rv.f_max - rv.f_min)
    return float(first + mean_u * (last - first))


# ---------------------------------------------------------------------------
# Assembly and simulation
# ---------------------------------------------------------------------------

# An exact s = dims*m + 1 qubit F is s native gates, but it allocates as
# 2**s: the statevector, apply_circuit's copy and a gate's two half-state
# temporaries, the angles as Python floats (about 32 B each, some 2**s of
# them) and the values grid.  tracemalloc measured 81-115 B per amplitude at
# s = 13-17, the stress test's the lowest; QMCConfig checks 128, so s = 23
# fits (`run neoclassical --m 22 --n 4`: 873 MB RSS).
# The full spectral distribution, which `auto` builds only when a caller
# reads it, after F is freed, holds 3.125 float64 arrays of 2**n, checked as
# four, so n = 25 fits (`--m 22 --n 25`: 954 MB RSS).


@dataclass
class QMCConfig:
    dims: int = 1
    m: int = 5
    n: int = 6
    r_mode: str = "exact"          # "exact" | "linear"
    method: str = "auto"           # "auto" (spectral readout) | "circuit" (reference)

    def __post_init__(self):
        if self.r_mode not in ("exact", "linear"):
            raise ValueError(f"unknown r_mode {self.r_mode!r}")
        if self.method not in ("auto", "circuit"):
            raise ValueError(f"unknown method {self.method!r}")
        if self.r_mode == "linear" and self.dims != 1:
            raise ValueError("the linear encoding handles one dimension only")
        if self.m < 1 or self.n < 1:
            raise ValueError(f"need m >= 1 and n >= 1, got m={self.m}, n={self.n}")
        # Fail before anything sized by the registers is allocated.
        s = self.dims * self.m + 1
        check_memory(f"an F register of {s} qubits", 128, s)
        check_memory(f"a readout of {self.n} estimation qubits", 32, self.n)


@dataclass
class PhaseEstimate:
    """Readout of the estimation register and its exact outcome distribution.

    ``simulated`` is the distribution the ``circuit`` method simulated, or
    None under ``auto``, whose readout took four outcomes of the closed form;
    ``distribution`` then builds all 2**n from p1 when first read.  The
    oracle calls and the normalized mean follow from n and theta_hat.
    """

    simulated: np.ndarray | None
    theta_hat: float
    mu: float
    n: int
    p1: float

    def __post_init__(self):
        if self.simulated is not None:
            total = float(np.sum(self.simulated))
            if abs(total - 1.0) > 1e-10:
                raise ValueError(f"distribution sums to {total}, expected 1")

    @property
    def mu_normalized(self) -> float:
        return theta_to_mu(self.theta_hat)

    @property
    def oracle_calls(self) -> int:
        return 2**self.n - 1

    @cached_property
    def distribution(self) -> np.ndarray:
        if self.simulated is not None:
            return self.simulated
        return spectral_distribution(self.p1, self.n)


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
    if rv.values.shape != (1 << total_m,):
        raise ValueError(f"a variable of {rv.values.size} values does not fit a "
                         f"{total_m}-qubit register")
    f_circuit = Circuit(total_m + 1)
    for j, dist in enumerate(dists):
        reg = range(j * m, (j + 1) * m)
        f_circuit.extend(exact_state_prep(dist, reg) if ansatz is None
                         else ansatz_circuit(ansatz, reg))
    if linear is None:
        return f_circuit.extend(build_R_exact(rv))
    ramp = np.linspace(0.0, 1.0, 1 << total_m)
    if not np.allclose(rv.values, ramp) and not np.allclose(rv.values, ramp[::-1]):
        raise ValueError("linear encoding requires a variable linear in the grid")
    return f_circuit.extend(build_R_linear(total_m, linear))


def _wrap(d: np.ndarray, size: int, scratch: np.ndarray) -> None:
    """d -= size * round(d / size), in place, with ``scratch`` as workspace."""
    np.divide(d, size, out=scratch)
    np.round(scratch, out=scratch)
    scratch *= size
    d -= scratch


def _kernel(theta: float, n: int, d: np.ndarray) -> np.ndarray:
    """|<y| QFT^-1 |phase theta>|^2 at the outcomes y held as floats in ``d``
    (Dirichlet kernel of a 2**n register).

    Evaluated as (sin(pi d) / (size sin(pi d / size)))**2 with the integer
    offset d = theta*size - y reduced into [-size/2, size/2]; this form stays
    accurate for large registers where theta*size is a big number.  Every
    step writes into ``d``, which it overwrites, or the result, so the kernel
    holds two float64 arrays of ``d``'s size and a mask.  Each value depends
    on its own outcome only, so it is the same for any subset of outcomes.
    """
    size = 1 << n
    # Split theta and reduce the exact high part modulo the register size
    # before adding the low correction: peak offsets near a wrapped phase
    # would otherwise lose ~size*eps of absolute precision.
    theta_hi = round(theta * (1 << 26)) / (1 << 26)
    theta_lo = theta - theta_hi
    np.subtract(theta_hi * size, d, out=d)
    out = np.empty(d.size)
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


def _phase(p1: float) -> float:
    """theta in [0, 1] with sin^2(pi theta / 2) = p1."""
    return math.acos(max(-1.0, min(1.0, 1.0 - 2.0 * p1))) / math.pi


def _spectral(p1: float, n: int, outcomes: np.ndarray) -> np.ndarray:
    """The half/half mix of the +-theta kernels at ``outcomes``, held as
    floats and overwritten, so the mix holds three arrays of their size."""
    theta = _phase(p1)
    out = _kernel(theta, n, outcomes.copy())
    out += _kernel(-theta, n, outcomes)
    out *= 0.5
    return out


def spectral_distribution(p1: float, n: int) -> np.ndarray:
    """Exact estimation-register distribution from the encoded probability.

    The input state splits evenly over the two Grover eigenstates with
    phases +-theta, so the output is the half/half mix of their phase
    kernels.  Valid for any F; pinned against the circuit simulation in the
    tests.
    """
    return _spectral(p1, n, np.arange(1 << n, dtype=float))


def spectral_theta_hat(p1: float, n: int) -> float:
    """``extract_theta(spectral_distribution(p1, n))`` from four outcomes.

    The distribution peaks at the grid points next to theta*2**n and
    (1 - theta)*2**n (Nielsen and Chuang, section 5.2), so the most probable
    outcome of the left half is one of their floors and ceilings, clipped
    to [0, 2**n / 2].  Their probabilities are computed as the full array
    computes them, bit for bit, and ties go to the smaller outcome.  The
    tests pin this against the full argmax.
    """
    size = 1 << n
    theta = _phase(p1)
    # theta lies in [0, 1], so no outcome falls below 0
    outcomes = np.array(sorted({min(side(x * size), size // 2)
                                for x in (theta, 1.0 - theta)
                                for side in (math.floor, math.ceil)}))
    probs = _spectral(p1, n, outcomes.astype(float))
    return int(outcomes[np.argmax(probs)]) / size


def _simulate_distribution(config, f_circuit, n):
    """The ``circuit`` method's theta-ordered outcome distribution (None
    under ``auto``) and the encoded probability p1.

    Both methods take p1 from F's statevector.  The ``circuit`` method keeps
    it as column 0 of a (2**s, 2**n) array, whose column y is Q applied on
    F's wires to column y - 1: Q^y F|0>.  Over sqrt(2**n), the array is the
    state before the inverse QFT, system wires first; the estimation wires
    read in reverse order undo the QFT's bit reversal.  Its memory is checked
    before Q or a state is built: five statevectors of 16 * 2**(s + n) bytes
    (the array, the inverse QFT's working copy and a gate's two half-state
    temporaries; the peak traced on the stress and neoclassical apps was
    3.0-3.2 statevectors at n = 5 and 12, 4.1-4.7 at n = 2 and 4.4-5.6 at
    n = 1, where F's own simulation, angles and grid make 2.8-3.6), 32 per
    gate stored (F; Q of twice V, F's inverse, a zero reflection of 2s + 3
    gates and F; the inverse QFT), 64 per multiplexor angle (in F and its
    inverse) and 1 MiB for numpy's buffers and small objects.
    """
    s, f_len = f_circuit.num_qubits, len(f_circuit)
    circuit = config.method == "circuit"
    if circuit:
        stored = f_len + n * (n + 1) // 2 + 4 * f_len + 4 * s + 8
        angles = sum(len(g.angle) for g in f_circuit.gates if g.kind == "ucry")
        check_memory(f"phase estimation on {s + n} qubits",
                     80 * (1 << (s + n)) + 32 * stored + 64 * angles + (1 << 20))
        q, iqft = grover_operator(f_circuit), inverse_qft(range(s, s + n))
    state = apply_circuit(init_state(s), f_circuit)
    p1 = float(probabilities(state, [s - 1])[1])
    if not circuit:
        return None, p1
    columns = np.empty((1 << s, 1 << n), dtype=np.complex128)
    columns[:, 0] = state.amplitudes
    for y in range(1, 1 << n):
        state = apply_circuit(state, q)
        columns[:, y] = state.amplitudes
    del state
    columns /= math.sqrt(1 << n)
    state = apply_circuit(StateVector(s + n, columns.reshape(-1)), iqft)
    del columns
    return probabilities(state, range(s + n - 1, s - 1, -1)), p1


def run_qmc(config: QMCConfig, dists, rv: RandomVariableSpec,
            ansatz: VariationalAnsatz | None = None) -> PhaseEstimate:
    """Assemble and run the full estimation pipeline.

    Returns the extracted phase, the recovered expectation in normalized and
    original units, and the exact outcome distribution over estimation
    bitstrings.  ``auto`` reads the phase from four outcomes of the closed
    form (``spectral_theta_hat``) and builds the 2**n array only when
    ``distribution`` is read; ``circuit`` simulates the array and reads its
    argmax.  ``config`` must describe ``dists``, whose sizes its memory checks
    counted.  ``ansatz``, when given, prepares every register; otherwise
    each is prepared exactly.  The linear rotation encoding takes its ramp
    direction from ``rv`` and its c_s rescaling from the configured number
    of estimation qubits.  The phase is always read from the left half of
    the distribution, so an encoded p1 above 1/2 returns the mirrored mean
    1 - mu (normalized) without a warning.
    """
    dists = list(dists)
    if len(dists) != config.dims or any(d.m != config.m for d in dists):
        raise ValueError(f"expected {config.dims} distributions of m={config.m}")
    linear = (LinearRParams.for_oracle_budget(rv, config.n)
              if config.r_mode == "linear" else None)
    simulated, p1 = _simulate_distribution(
        config, assemble_f(dists, rv, ansatz, linear), config.n)
    theta_hat = (spectral_theta_hat(p1, config.n) if simulated is None
                 else extract_theta(simulated))
    mu = denormalize_mu(theta_to_mu(theta_hat), rv, linear)
    return PhaseEstimate(simulated=simulated, theta_hat=theta_hat, mu=mu,
                         n=config.n, p1=p1)
