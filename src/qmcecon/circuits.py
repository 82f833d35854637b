"""Circuit construction and lowering utilities.

Provides the inverse quantum Fourier transform, a lowering pass into the
elementary gate set {RX, RY, RZ, CNOT}, and resource accounting (gate counts,
ASAP depth) used by the runtime benchmarks.

Circuits are built with native multi-controlled X gates, which the simulator
applies directly; only the lowering decides how one becomes elementary gates.
A k-control MCX with k >= 3 becomes the linear ladder of 2k-3 Toffolis on
k-2 clean work wires (Barenco et al. 1995, quant-ph/9503016, Lemma 7.2), so
whoever lowers a circuit supplies those wires.

The inverse QFT here carries no SWAP network; the bit reversal it would
implement is handled classically when reading out phase-estimation results
(each SWAP would cost 3 CNOTs for no physical benefit).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

from .sim import Circuit, Gate

ELEMENTARY_KINDS = ("rx", "ry", "rz", "cnot")


# ---------------------------------------------------------------------------
# Inverse QFT (no SWAPs)
# ---------------------------------------------------------------------------

def _qft_core(qubits: list[int]) -> list[Gate]:
    """Textbook QFT cascade without the final SWAP network."""
    n = len(qubits)
    gates = []
    for j in range(n):
        gates.append(Gate("h", (qubits[j],)))
        for k in range(j + 1, n):
            angle = math.pi / 2 ** (k - j)
            gates.append(Gate("cphase", (qubits[j],), (qubits[k],), angle))
    return gates


def inverse_qft(qubits) -> Circuit:
    """Inverse QFT on the listed qubits (first qubit = most significant bit).

    The returned circuit equals bit_reversal . DFT_inverse as a matrix: a
    state holding Fourier phases of x comes out as the basis state with the
    bits of x reversed.  Callers undo the reversal by re-indexing outcomes.
    """
    qs = list(qubits)
    if not qs:
        raise ValueError("inverse_qft needs at least one qubit")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit in {qs}")
    circ = Circuit(max(qs) + 1)
    # Mirrored forward cascade, inverted: yields bitrev . DFT^{-1} without SWAPs.
    for gate in reversed(_qft_core(qs[::-1])):
        circ.add(gate.inverse())
    return circ


def bit_reversal_permutation(n_bits: int):
    """Index array r with r[i] = bit-reversed i over n_bits."""
    import numpy as np

    idx = np.arange(1 << n_bits)
    rev = np.zeros_like(idx)
    for b in range(n_bits):
        rev |= ((idx >> b) & 1) << (n_bits - 1 - b)
    return rev


# ---------------------------------------------------------------------------
# Decomposition into {RX, RY, RZ, CNOT}
# ---------------------------------------------------------------------------

def _lower_h(q: int):
    # H = i * RY(pi/2) RZ(pi)  (RZ applied first)
    yield Gate("rz", (q,), angle=math.pi)
    yield Gate("ry", (q,), angle=math.pi / 2)


def _lower_toffoli(a: int, b: int, t: int):
    """Standard 6-CNOT Toffoli with T gates expressed as RZ(+-pi/4)."""
    tq = math.pi / 4
    yield from _lower_h(t)
    yield Gate("cnot", (t,), (b,))
    yield Gate("rz", (t,), angle=-tq)
    yield Gate("cnot", (t,), (a,))
    yield Gate("rz", (t,), angle=tq)
    yield Gate("cnot", (t,), (b,))
    yield Gate("rz", (t,), angle=-tq)
    yield Gate("cnot", (t,), (a,))
    yield Gate("rz", (b,), angle=tq)
    yield Gate("rz", (t,), angle=tq)
    yield from _lower_h(t)
    yield Gate("cnot", (b,), (a,))
    yield Gate("rz", (a,), angle=tq)
    yield Gate("rz", (b,), angle=-tq)
    yield Gate("cnot", (b,), (a,))


def _lower_mcx(gate: Gate, work: tuple[int, ...]):
    controls, target = gate.controls, gate.targets[0]
    k = len(controls)
    if k == 1:
        yield Gate("cnot", gate.targets, controls)
        return
    if k == 2:
        yield from _lower_toffoli(controls[0], controls[1], target)
        return
    if len(work) < k - 2:
        raise ValueError(f"mcx with {k} controls needs {k - 2} work wires, "
                         f"got {len(work)}")
    if set(work) & set(gate.qubits):
        raise ValueError(f"work wires {work} overlap mcx wires {gate.qubits}")
    # (c0, c1 -> w0), then (c_i, w_{i-2} -> w_{i-1}); the last Toffoli hits
    # the target and the ladder is undone in reverse, returning work to |0>.
    # The gate order sets the ASAP depth of the resource table.
    ladder = [(controls[0], controls[1], work[0])]
    ladder += [(controls[i], work[i - 2], work[i - 1]) for i in range(2, k - 1)]
    for a, b, t in ladder:
        yield from _lower_toffoli(a, b, t)
    yield from _lower_toffoli(controls[k - 1], work[k - 3], target)
    for a, b, t in reversed(ladder):
        yield from _lower_toffoli(a, b, t)


def _lower_gate(gate: Gate, work: tuple[int, ...]):
    kind = gate.kind
    if kind in ELEMENTARY_KINDS:
        yield gate
        return
    if kind == "h":
        yield from _lower_h(gate.targets[0])
    elif kind == "x":
        yield Gate("rx", gate.targets, angle=math.pi)
    elif kind == "cz":
        t = gate.targets[0]
        yield from _lower_h(t)
        yield Gate("cnot", (t,), gate.controls)
        yield from _lower_h(t)
    elif kind == "cry":
        c, t, phi = gate.controls[0], gate.targets[0], gate.angle
        yield Gate("ry", (t,), angle=phi / 2)
        yield Gate("cnot", (t,), (c,))
        yield Gate("ry", (t,), angle=-phi / 2)
        yield Gate("cnot", (t,), (c,))
    elif kind == "cphase":
        c, t, phi = gate.controls[0], gate.targets[0], gate.angle
        yield Gate("rz", (c,), angle=phi / 2)
        yield Gate("rz", (t,), angle=phi / 2)
        yield Gate("cnot", (t,), (c,))
        yield Gate("rz", (t,), angle=-phi / 2)
        yield Gate("cnot", (t,), (c,))
    elif kind == "mcx":
        yield from _lower_mcx(gate, work)
    else:
        raise ValueError(f"no decomposition rule for gate kind {kind!r}")


def lower_gates(gates, work=()):
    """Stream the elementary-gate lowering of an iterable of gates.

    ``work`` lists clean wires, in |0> wherever an MCX with k >= 3 controls
    is reached, that its Toffoli ladder may borrow: it takes the first k-2
    and returns them to |0>.  The lowering is then exact on inputs with the
    work wires in |0> (and up to global phase).  A ValueError is raised when
    such an MCX meets fewer than k-2 work wires, or work wires that repeat or
    overlap the gate's own wires.
    """
    work = tuple(work)
    if len(set(work)) != len(work):
        raise ValueError(f"duplicate work wire in {work}")
    for gate in gates:
        yield from _lower_gate(gate, work)


def decompose(circuit: Circuit, work=()) -> Circuit:
    """Rewrite a circuit into {RX, RY, RZ, CNOT}, widened to cover ``work``.

    ``work`` is passed to ``lower_gates``.  The result equals the input up to
    global phase on inputs with the work wires in |0>; the randomized test
    suite checks this against dense unitaries.
    """
    work = tuple(work)
    width = max([circuit.num_qubits, *(w + 1 for w in work)])
    out = Circuit(width, metadata=dict(circuit.metadata))
    for gate in lower_gates(circuit.gates, work):
        out.add(gate)
    return out


# ---------------------------------------------------------------------------
# Resource accounting
# ---------------------------------------------------------------------------

@dataclass
class ResourceReport:
    """Gate counts and ASAP-scheduled depth of a decomposed circuit."""

    counts: dict[str, int]
    total_gates: int
    depth: int
    num_qubits: int

    def count(self, kind: str) -> int:
        return self.counts.get(kind, 0)


@dataclass
class GateTimeModel:
    """Uniform seconds-per-elementary-gate timing model."""

    gate_time: float

    def __post_init__(self):
        if not self.gate_time > 0:
            raise ValueError(f"gate_time must be positive, got {self.gate_time}")


def count_stream(gates, num_qubits: int) -> ResourceReport:
    """Count elementary gates and ASAP depth from a gate stream.

    Every gate occupies one time step on each qubit it touches; a gate is
    scheduled at 1 + the latest finish layer among its qubits.
    """
    counts: Counter = Counter()
    frontier = [0] * num_qubits
    depth = 0
    for gate in gates:
        if gate.kind not in ELEMENTARY_KINDS:
            raise ValueError(
                f"count_resources expects elementary gates, got {gate.kind!r}; "
                "run decompose first"
            )
        counts[gate.kind] += 1
        layer = 1 + max(frontier[q] for q in gate.qubits)
        for q in gate.qubits:
            frontier[q] = layer
        if layer > depth:
            depth = layer
    return ResourceReport(dict(counts), sum(counts.values()), depth, num_qubits)


def count_resources(circuit: Circuit) -> ResourceReport:
    return count_stream(circuit.gates, circuit.num_qubits)
