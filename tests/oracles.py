"""Dense oracles the tests check the package against: whole statevectors and matrices, which no command builds.

Each is the plain O(2^N) construction of a quantity that the package computes
on the N slots of a one-hot state or in closed form.
"""
from __future__ import annotations

import math

import numpy as np

from qcobweb.linalg import (
    PRODUCT_TOL,
    DensityMatrix,
    LinearOperator,
    PureState,
    _marginal_entries,
    entropy_of_eigenvalues,
    project,
)
from qcobweb.protocol import _require_protocol
from qcobweb.states import UnknownQubit, ZsaAmplitudes, build_state

IMPOSSIBLE_PROBABILITY = 1e-14


class ImpossibleOutcome(ValueError):
    """Requested measurement outcome has (numerically) zero probability."""


def basis_state(num_qubits: int, index: int) -> PureState:
    """Computational-basis state |index> (big-endian bit order)."""
    if not 0 <= index < 2 ** num_qubits:
        raise ValueError(f"basis index {index} out of range for {num_qubits} qubits")
    amp = np.zeros(2 ** num_qubits, dtype=complex)
    amp[index] = 1.0
    return PureState(num_qubits, amp)


def tensor(a, b):
    """Kronecker product of two states or two operators; a's indices most significant."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(
            a.dim * b.dim,
            np.kron(a.entries, b.entries),
            unitary=a.unitary and b.unitary,
            hermitian=a.hermitian and b.hermitian,
        )
    raise TypeError("tensor expects two PureStates or two LinearOperators")


def outer(state: PureState) -> DensityMatrix:
    """Projector |psi><psi| of a pure state."""
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def pure_marginal(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state without forming the full projector."""
    return DensityMatrix(*_marginal_entries(state, keep))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho.entries))


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """True iff |<a|b>| >= 1 - tol."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def is_product_state(state: PureState, tol: float = PRODUCT_TOL) -> bool:
    """True iff every single-qubit marginal is pure within tol."""
    if state.num_qubits == 1:
        return True
    for q in range(1, state.num_qubits + 1):
        low = float(np.linalg.eigvalsh(_marginal_entries(state, [q])[1])[0])
        if low > tol:
            return False
    return True


def joint_state(q: UnknownQubit, z: ZsaAmplitudes) -> PureState:
    """|psi>_a tensor the shared state; particle a is the most significant qubit."""
    _require_protocol(z)
    return tensor(q.state(), build_state(z))


def project_qubit(state: PureState, k: int, outcome: int) -> tuple[float, PureState]:
    """Measure qubit k in the computational basis and keep the given outcome.

    Returns the Born probability and the renormalized residual state of the
    remaining qubits.  Raises ImpossibleOutcome when the probability vanishes.
    """
    if outcome not in (0, 1):
        raise ValueError(f"outcome must be 0 or 1, got {outcome!r}")
    target = np.zeros(2, dtype=complex)
    target[outcome] = 1.0
    prob, residual = project(state, [k], target)
    if prob < IMPOSSIBLE_PROBABILITY:
        raise ImpossibleOutcome(
            f"outcome {outcome} on qubit {k} has probability {prob:.3e}"
        )
    return prob, PureState(state.num_qubits - 1, residual / math.sqrt(prob))
