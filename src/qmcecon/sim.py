"""Dense statevector simulation of qubit circuits.

Conventions used throughout the package:

* Qubit 0 is the **most significant bit** of the basis-state index, so for a
  3-qubit register the basis state |q0 q1 q2> = |110> has index 6.
* Global phase is unobservable; equivalence checks elsewhere compare states up
  to one complex unit scalar, or compare probability vectors.
* Amplitudes are stored as ``complex128`` and are never renormalised while a
  circuit runs.  Norm drift stays below 1e-10 for the circuit sizes handled
  here and is monitored by the test suite rather than corrected.
* Every gate kind acts on its target by a 2x2 matrix U.  All but the
  multiplexor ``ucry`` are controlled-U: U wherever every control is |1>,
  the identity elsewhere.  ``ucry``'s U is the RY of each control pattern's
  own angle.  ``_KINDS`` gives each kind its number of controls and U, and
  one kernel applies them all, each gate in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

# Bytes that one request may allocate at its peak.  Read at call time as
# ``sim.MEMORY_BUDGET``, so setting it moves every check at once.
MEMORY_BUDGET = 1 << 30


class ResourceLimitError(RuntimeError):
    """Raised when a request would exceed the memory budget."""


def check_memory(what: str, nbytes: int, log2: int = 0) -> None:
    """Refuse a request whose peak allocation ``nbytes * 2**log2`` exceeds
    the budget.

    Every request sized by a register or by a count from the command line
    calls this once, before it allocates, with ``what`` naming it.  A
    register passes its width as ``log2``, so a huge one is refused from the
    exponent, before a product of that many bits is built.
    """
    bits = nbytes.bit_length() + log2   # of the product, for nbytes >= 1
    if bits <= MEMORY_BUDGET.bit_length() and nbytes * 2**log2 <= MEMORY_BUDGET:
        return
    # past 2**128, a power of two: str() refuses integers of 4300 digits
    size = nbytes * 2**log2 if bits <= 128 else f"at least 2**{bits - 1}"
    raise ResourceLimitError(
        f"{what} needs {size} bytes, exceeding the cap of {MEMORY_BUDGET}")


def _turn(rows):
    """U of an angle, built as ``rows(c, s)`` of its half's cosine and sine."""
    return lambda angle: rows(math.cos(angle / 2), math.sin(angle / 2))


_X = ((0, 1), (1, 0))
_RY = _turn(lambda c, s: ((c, -s), (s, c)))
_H = 1 / math.sqrt(2)

# gate kind -> (number of controls, None for any; the target's 2x2 U as rows
# of scalars: fixed, a function of the angle, or None for ucry, whose RY
# angle varies with the control pattern).  A fixed U here is its own inverse.
_KINDS = {
    "rx": (0, _turn(lambda c, s: ((c, -1j * s), (-1j * s, c)))),
    "ry": (0, _RY),
    "rz": (0, _turn(lambda c, s: ((c - 1j * s, 0), (0, c + 1j * s)))),
    "h": (0, ((_H, _H), (_H, -_H))),
    "x": (0, _X),
    "z": (0, ((1, 0), (0, -1))),
    "cnot": (1, _X),
    "cz": (1, ((1, 0), (0, -1))),
    "cry": (1, _RY),
    "cphase": (1, lambda angle: ((1, 0), (0, np.exp(1j * angle)))),
    "mcx": (None, _X),      # at least one control
    "ucry": (None, None),   # a tuple of 2**k angles for k controls
}


@dataclass(frozen=True, slots=True)
class Gate:
    """One gate acting on named qubit indices.

    ``targets`` and ``controls`` must be disjoint; rotation kinds carry a
    finite ``angle`` in radians.

    ``ucry`` is the uniformly controlled RY (a multiplexor): it rotates the
    target by ``angle[i]`` when the k controls hold the bits of i, the first
    control the most significant.  Its ``angle`` is a tuple of 2**k finite
    floats, so the gate stays hashable and comparable like every other.
    """

    kind: str
    targets: tuple[int, ...]
    controls: tuple[int, ...] = ()
    angle: float | tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        n_c, u = _KINDS[self.kind]
        if len(self.targets) != 1:
            raise ValueError(f"{self.kind} expects one target, got {self.targets}")
        if n_c is not None and len(self.controls) != n_c:
            raise ValueError(f"{self.kind} expects {n_c} control(s), got {self.controls}")
        if self.kind == "mcx" and len(self.controls) < 1:
            raise ValueError("mcx needs at least one control")
        qubits = self.targets + self.controls
        if len(set(qubits)) != len(qubits):
            raise ValueError(f"targets/controls overlap in {self.kind}: {qubits}")
        if any(q < 0 for q in qubits):
            raise ValueError(f"negative qubit index in {self.kind}: {qubits}")
        if u is None:
            need = 1 << len(self.controls)
            if not isinstance(self.angle, tuple) or len(self.angle) != need:
                raise ValueError(f"ucry with {len(self.controls)} controls needs a "
                                 f"tuple of {need} angles")
            if not all(map(math.isfinite, self.angle)):
                raise ValueError("ucry needs finite angles")
        elif callable(u):
            if self.angle is None or not math.isfinite(self.angle):
                raise ValueError(f"{self.kind} needs a finite angle, got {self.angle}")
        elif self.angle is not None:
            raise ValueError(f"{self.kind} takes no angle")

    @property
    def qubits(self) -> tuple[int, ...]:
        return self.targets + self.controls

    def inverse(self) -> "Gate":
        u = _KINDS[self.kind][1]
        if u is None:
            return Gate("ucry", self.targets, self.controls,
                        tuple(-a for a in self.angle))
        if callable(u):
            return Gate(self.kind, self.targets, self.controls, -self.angle)
        return self


@dataclass
class Circuit:
    """Ordered gate sequence over ``num_qubits`` named qubits."""

    num_qubits: int
    gates: list[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        if max(gate.qubits) >= self.num_qubits:
            raise ValueError(
                f"gate {gate.kind} on qubits {gate.qubits} exceeds register "
                f"of {self.num_qubits} qubits"
            )
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        source = gates.gates if isinstance(gates, Circuit) else gates
        for g in source:
            self.add(g)
        return self

    # -- convenience builders ------------------------------------------------
    def ry(self, q, angle):
        return self.add(Gate("ry", (q,), angle=angle))

    def rz(self, q, angle):
        return self.add(Gate("rz", (q,), angle=angle))

    def h(self, q):
        return self.add(Gate("h", (q,)))

    def cnot(self, control, target):
        return self.add(Gate("cnot", (target,), (control,)))

    def cry(self, control, target, angle):
        return self.add(Gate("cry", (target,), (control,), angle))

    def cphase(self, control, target, angle):
        return self.add(Gate("cphase", (target,), (control,), angle))

    def ucry(self, controls, target, angles):
        angles = tuple(np.asarray(angles, dtype=float).tolist())
        return self.add(Gate("ucry", (target,), tuple(controls), angles))

    def inverse(self) -> "Circuit":
        inv = Circuit(self.num_qubits)
        inv.gates = [g.inverse() for g in reversed(self.gates)]
        return inv

    def __len__(self) -> int:
        return len(self.gates)


@dataclass
class StateVector:
    """2**num_qubits complex amplitudes of a pure state."""

    num_qubits: int
    amplitudes: np.ndarray


def init_state(num_qubits: int) -> StateVector:
    """Return |0...0> on ``num_qubits`` qubits.

    The state is 16 * 2**num_qubits bytes of complex128 amplitudes, checked
    against the memory budget before it is allocated (26 qubits fit).
    """
    if num_qubits < 1:
        raise ValueError(f"need at least one qubit, got {num_qubits}")
    check_memory(f"a statevector of {num_qubits} qubits", 16, num_qubits)
    amp = np.zeros(1 << num_qubits, dtype=np.complex128)
    amp[0] = 1.0
    return StateVector(num_qubits, amp)


# Gates apply in place on a tensor whose leading axes are the qubit axes;
# trailing axes (used by dense_unitary) broadcast through untouched.

def _apply_gate_tensor(tensor: np.ndarray, gate: Gate) -> None:
    """U on the target's two halves of the view where every control is |1>.

    A multiplexor leaves its control axes in the view, and its U's entries
    are arrays of its RY's cos and sin that broadcast over it: size 2 on
    each control axis (the first control the most significant bit) and 1
    on every other axis.
    """
    u = _KINDS[gate.kind][1]
    index = [slice(None)] * tensor.ndim
    if u is None:
        shape = [1] * tensor.ndim
        for c in gate.controls:
            shape[c] = 2
        del shape[gate.targets[0]]
        k = len(gate.controls)
        wire_order = sorted(range(k), key=gate.controls.__getitem__)
        half = np.asarray(gate.angle) / 2    # then sin: three angle arrays
        cos, sin = (a.reshape((2,) * k).transpose(wire_order).reshape(shape)
                    for a in (np.cos(half), np.sin(half, out=half)))
        u = ((cos, -sin), (sin, cos))
    else:
        u = u(gate.angle) if callable(u) else u
        for c in gate.controls:
            index[c] = 1
    index[gate.targets[0]] = 0
    top = tensor[(*index, ...)]         # views, even when 0-d
    index[gate.targets[0]] = 1
    bottom = tensor[(*index, ...)]
    (u00, u01), (u10, u11) = u
    old_top = top.copy()
    if u is _X:                         # the one anti-diagonal U: a swap
        np.multiply(bottom, u01, out=top)
        np.multiply(old_top, u10, out=bottom)
    else:
        top *= u00
        top += u01 * bottom
        bottom *= u11
        bottom += u10 * old_top


def apply_circuit(state: StateVector, circuit: Circuit) -> StateVector:
    """Apply all gates of ``circuit`` in order, returning a new state."""
    if circuit.num_qubits != state.num_qubits:
        raise ValueError(f"circuit has {circuit.num_qubits} qubits, "
                         f"state has {state.num_qubits}")
    amp = state.amplitudes.copy()
    tensor = amp.reshape((2,) * state.num_qubits)
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate)
    return StateVector(state.num_qubits, amp)


def probabilities(state: StateVector, qubits=None) -> np.ndarray:
    """Marginal outcome distribution of the listed qubits.

    The first listed qubit is the most significant bit of the outcome index.
    With ``qubits=None`` the full distribution over all qubits is returned.
    """
    nq = state.num_qubits
    probs = np.abs(state.amplitudes) ** 2
    if qubits is None:
        return probs
    qubits = list(qubits)
    if len(set(qubits)) != len(qubits):
        raise ValueError(f"duplicate qubit index in {qubits}")
    if any(q < 0 or q >= nq for q in qubits):
        raise ValueError(f"qubit index out of range in {qubits}")
    tensor = probs.reshape((2,) * nq)
    others = tuple(q for q in range(nq) if q not in qubits)
    marg = tensor.sum(axis=others) if others else tensor
    kept_sorted = sorted(qubits)
    perm = [kept_sorted.index(q) for q in qubits]
    return np.transpose(marg, perm).reshape(-1)


def dense_unitary(circuit: Circuit) -> np.ndarray:
    """Full 2**q x 2**q matrix of a circuit.

    Checked as four complex128 matrices, 64 * 4**q bytes (12 qubits fit):
    every gate's two half-matrix temporaries bring the peak to 2.0 of them.
    """
    q = circuit.num_qubits
    check_memory(f"a dense unitary of {q} qubits", 64, 2 * q)
    dim = 1 << q
    mat = np.eye(dim, dtype=np.complex128)
    tensor = mat.reshape((2,) * q + (dim,))
    for gate in circuit.gates:
        _apply_gate_tensor(tensor, gate)
    return tensor.reshape(dim, dim)
