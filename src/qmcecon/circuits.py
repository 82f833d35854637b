"""Circuit construction and lowering utilities.

Provides the inverse quantum Fourier transform, a lowering pass into the
elementary gate set {RX, RY, RZ, CNOT}, and resource accounting (gate counts,
ASAP depth) used by the runtime benchmarks.

ASAP depth is max-plus linear in the per-wire frontier: a gate on wires Q
sets each of them to 1 + the largest frontier among Q.  A gate stream is
therefore one longest-path transfer matrix, and streams in sequence compose
by the max-plus product ``maxplus`` (Baccelli, Cohen, Olsder and Quadrat,
*Synchronization and Linearity*, 1992).  A repeated block is counted once:
its gate counts times its repeats, and its matrix composed with itself.  The
repeat counts here are powers of two, as for the controlled-Q blocks of
phase estimation, so each is one of the squarings ``maxplus_squarings``
lists, and one list serves every block.  ``count_stream`` scans a flat
stream gate by gate and is the reference for both.

Circuits are built with native multi-controlled X gates and native
uniformly controlled RY gates (multiplexors), which the simulator applies
directly; only the lowering decides how one becomes elementary gates.
A k-control MCX with k >= 3 becomes the linear ladder of 2k-3 Toffolis on
k-2 clean work wires (Barenco et al. 1995, quant-ph/9503016, Lemma 7.2), so
whoever lowers a circuit supplies those wires.  A k-control multiplexor
becomes the recursive tree of 2**k RY and 2**(k+1) - 2 CNOT gates (Mottonen
et al. 2004, quant-ph/0407010; Shende, Bullock and Markov 2006,
quant-ph/0406176).  Loading an arbitrary distribution exactly stays
exponential in gate count on hardware (Grover and Rudolph 2002,
quant-ph/0208112); the native gate only makes its simulation cheap.

The inverse QFT here carries no SWAP network; the bit reversal it would
implement is handled classically when reading out phase-estimation results
(each SWAP would cost 3 CNOTs for no physical benefit).
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .sim import Circuit, Gate

ELEMENTARY_KINDS = ("rx", "ry", "rz", "cnot")


# ---------------------------------------------------------------------------
# Inverse QFT (no SWAPs)
# ---------------------------------------------------------------------------

def inverse_qft(qubits) -> Circuit:
    """Inverse QFT on the listed qubits (first qubit = most significant bit).

    The returned circuit equals bit_reversal . DFT_inverse as a matrix: a
    state holding Fourier phases of x comes out as the basis state with the
    bits of x reversed.  Callers undo the reversal by reading the wires in
    reverse order.
    """
    qs = list(qubits)
    if not qs:
        raise ValueError("inverse_qft needs at least one qubit")
    if len(set(qs)) != len(qs):
        raise ValueError(f"duplicate qubit in {qs}")
    circ = Circuit(max(qs) + 1)
    # The textbook QFT cascade on the reversed wires, inverted gate by gate:
    # each wire takes the inverse phases controlled by the wires before it,
    # then its H.  That is bitrev . DFT^{-1} without SWAPs.
    for a, t in enumerate(qs):
        for b in range(a):
            circ.cphase(qs[b], t, -math.pi / 2 ** (a - b))
        circ.h(t)
    return circ


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


def _ucry_gates(angles: np.ndarray, controls: tuple[int, ...], target: int):
    """Uniformly controlled RY: rotate target by angles[i] for control state i.

    Recursive multiplexor built from plain RY and CNOT; the first control is
    the most significant bit of i.  Gate count is 2**k RY + 2**(k+1) - 2 CNOT.
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


def _lower_gate(gate: Gate, work: tuple[int, ...]):
    kind = gate.kind
    if kind in ELEMENTARY_KINDS:
        yield gate
        return
    if kind == "h":
        yield from _lower_h(gate.targets[0])
    elif kind == "x":
        yield Gate("rx", gate.targets, angle=math.pi)
    elif kind == "z":
        yield Gate("rz", gate.targets, angle=math.pi)
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
    elif kind == "ucry":
        yield from _ucry_gates(np.array(gate.angle), gate.controls,
                               gate.targets[0])
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
    out = Circuit(width)
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


# Max-plus "minus infinity": no path between two wires.  Real entries are
# depths, far below 2**61, so sums of two entries stay inside int64 and any
# negative sum means no path.
NO_PATH = -(1 << 62)


def transfer_matrix(gates, num_qubits: int) -> np.ndarray:
    """Longest-path transfer matrix of a gate stream, scheduled as in
    ``count_stream``.

    ``T[i, j]`` is the most gates on any path from the input of wire i to
    the output of wire j, ``NO_PATH`` where there is none, so the stream
    takes a per-wire frontier ``f`` to ``max_i f[i] + T[i, j]``.  A wire the
    stream does not touch passes through with 0 on the diagonal.
    """
    # rows[j] + lift[j] is, per input wire, the longest path to the end of
    # wire j: a one-wire gate only raises lift, and a gate on several wires
    # writes one new row that all of them share (a row is never changed once
    # stored).  An untouched wire keeps its identity row.
    eye = np.full((num_qubits, num_qubits), NO_PATH, dtype=np.int64)
    np.fill_diagonal(eye, 0)
    rows = list(eye)
    lift = [0] * num_qubits
    for gate in gates:
        if not gate.controls:   # every kind has one target
            lift[gate.targets[0]] += 1
            continue
        touched = gate.qubits
        top = max(lift[j] for j in touched)
        row = rows[touched[0]] + (lift[touched[0]] - top)
        for j in touched[1:]:
            np.maximum(row, rows[j] + (lift[j] - top), out=row)
        for j in touched:
            rows[j] = row
            lift[j] = top + 1
    out = (np.array(rows, dtype=np.int64) + np.array(lift, dtype=np.int64)[:, None]).T
    out[out < 0] = NO_PATH
    return out


def maxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Max-plus product ``max_i a[..., i] + b[i, j]``: a frontier or transfer
    matrix ``a`` carried through the stream whose transfer matrix is ``b``."""
    out = (a[..., :, None] + b).max(axis=-2)
    out[out < 0] = NO_PATH
    return out


def maxplus_squarings(transfer: np.ndarray, count: int) -> list[np.ndarray]:
    """The max-plus powers ``transfer ** (2 ** j)`` for j < ``count``, each
    the square of the one before."""
    powers = [transfer][:count]
    while len(powers) < count:
        powers.append(maxplus(powers[-1], powers[-1]))
    return powers
