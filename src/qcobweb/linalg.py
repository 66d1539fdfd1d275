"""Dense complex linear algebra for small multi-qubit systems.

Conventions used by every module in this package:

* Qubits are labeled 1..n and ordered big-endian: qubit 1 is the most
  significant bit of a computational-basis index.
* All entropies and logarithms are base 2 (bits / ebits).
* Construction checks use a 1e-12 tolerance; eigenvalue positivity allows
  1e-10 of eigensolver noise; eigenvalues below 1e-14 count as exactly zero
  in entropy sums.
* A state is a product state when the smaller eigenvalue of every
  single-qubit marginal is at most 1e-9 (PRODUCT_TOL); a forced Bell branch
  with probability below 1e-14 is degenerate (protocol.DEGENERATE_PROBABILITY).

Everything here is immutable after construction and every operation is a
pure function, so concurrent use is safe.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONSTRUCTION_TOL = 1e-12
POSITIVITY_TOL = 1e-10
ENTROPY_CUTOFF = 1e-14
PRODUCT_TOL = 1e-9


def _readonly_complex(values, shape) -> np.ndarray:
    arr = np.array(values, dtype=complex).reshape(shape)
    if not np.isfinite(arr).all():  # complex isfinite: both parts finite, in one pass
        raise ValueError("entries must be finite (no NaN/Inf)")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class PureState:
    """Dense statevector over ``num_qubits`` qubits.

    ``normalized=False`` marks intermediate states (for example protocol
    targets written without their normalization constant); the norm check
    is skipped for those.
    """

    num_qubits: int
    amplitudes: np.ndarray
    normalized: bool = True

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amp = _readonly_complex(self.amplitudes, -1)
        if amp.size != 2 ** self.num_qubits:
            raise ValueError(
                f"expected {2 ** self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amp.size}"
            )
        if self.normalized:
            nrm = float(np.vdot(amp, amp).real)
            if abs(nrm - 1.0) > CONSTRUCTION_TOL:
                raise ValueError(f"state flagged normalized has squared norm {nrm!r}")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass(frozen=True, eq=False)
class LinearOperator:
    """Square complex matrix, optionally flagged (and then checked) unitary or Hermitian."""

    dim: int
    entries: np.ndarray
    unitary: bool = False
    hermitian: bool = False

    def __post_init__(self):
        m = _readonly_complex(self.entries, (self.dim, self.dim))
        if self.unitary:
            err = np.max(np.abs(m.conj().T @ m - np.eye(self.dim)))
            if err > CONSTRUCTION_TOL:
                raise ValueError(f"operator flagged unitary violates U^dag U = I by {err:.3e}")
        if self.hermitian:
            err = np.max(np.abs(m - m.conj().T))
            if err > CONSTRUCTION_TOL:
                raise ValueError(f"operator flagged Hermitian has asymmetry {err:.3e}")
        object.__setattr__(self, "entries", m)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix over ``num_qubits`` qubits."""

    num_qubits: int
    entries: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a density matrix needs at least one qubit")
        d = 2 ** self.num_qubits
        m = _readonly_complex(self.entries, (d, d))
        herm = np.max(np.abs(m - m.conj().T))
        if herm > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix is not Hermitian: asymmetry {herm:.3e}")
        tr = complex(np.trace(m))
        if abs(tr - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"density matrix has trace {tr!r}, expected 1")
        low = float(np.linalg.eigvalsh(m)[0])
        if low < -POSITIVITY_TOL:
            raise ValueError(f"density matrix has negative eigenvalue {low:.3e}")
        object.__setattr__(self, "entries", m)

    @property
    def dim(self) -> int:
        return self.entries.shape[0]


PAULI_X = LinearOperator(2, [[0, 1], [1, 0]], unitary=True, hermitian=True)
PAULI_Y = LinearOperator(2, [[0, -1j], [1j, 0]], unitary=True, hermitian=True)
PAULI_Z = LinearOperator(2, [[1, 0], [0, -1]], unitary=True, hermitian=True)
IDENTITY_2 = LinearOperator(2, [[1, 0], [0, 1]], unitary=True, hermitian=True)


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
        return PureState(
            a.num_qubits + b.num_qubits,
            np.kron(a.amplitudes, b.amplitudes),
            normalized=a.normalized and b.normalized,
        )
    if isinstance(a, LinearOperator) and isinstance(b, LinearOperator):
        return LinearOperator(
            a.dim * b.dim,
            np.kron(a.entries, b.entries),
            unitary=a.unitary and b.unitary,
            hermitian=a.hermitian and b.hermitian,
        )
    raise TypeError("tensor expects two PureStates or two LinearOperators")


def outer(state: PureState) -> DensityMatrix:
    """Projector |psi><psi| of a normalized pure state."""
    if not state.normalized:
        raise ValueError("outer product requires a normalized state")
    return DensityMatrix(state.num_qubits, np.outer(state.amplitudes, state.amplitudes.conj()))


def _check_qubit_labels(n: int, labels) -> list[int]:
    out = [int(q) for q in labels]
    if len(set(out)) != len(out):
        raise ValueError(f"qubit labels must be distinct, got {out}")
    for q in out:
        if not 1 <= q <= n:
            raise ValueError(f"qubit label {q} out of range 1..{n}")
    return out


def partial_trace(rho: DensityMatrix, keep) -> DensityMatrix:
    """Reduced density matrix over the kept qubits (ascending label order)."""
    n = rho.num_qubits
    kept = sorted(set(_check_qubit_labels(n, keep)))
    if not kept:
        raise ValueError("keep set must be nonempty")
    if len(kept) == n:
        return rho
    t = rho.entries.reshape([2] * (2 * n))
    remaining = n
    # Trace highest labels first so lower row/column axis pairs keep their positions.
    for q in sorted(set(range(1, n + 1)) - set(kept), reverse=True):
        t = np.trace(t, axis1=q - 1, axis2=remaining + q - 1)
        remaining -= 1
    d = 2 ** len(kept)
    return DensityMatrix(len(kept), t.reshape(d, d))


def _marginal_entries(state: PureState, keep) -> tuple[int, np.ndarray]:
    """Qubit count and matrix of a pure state's marginal over the kept qubits, unvalidated."""
    if not state.normalized:
        raise ValueError("pure_marginal requires a normalized state")
    n = state.num_qubits
    kept = sorted(set(_check_qubit_labels(n, keep)))
    if not kept:
        raise ValueError("keep set must be nonempty")
    rest = [q for q in range(1, n + 1) if q not in kept]
    psi = state.amplitudes.reshape([2] * n)
    m = psi.transpose([q - 1 for q in kept] + [q - 1 for q in rest]).reshape(2 ** len(kept), -1)
    return len(kept), m @ m.conj().T


def pure_marginal(state: PureState, keep) -> DensityMatrix:
    """Reduced density matrix of a pure state without forming the full projector."""
    return DensityMatrix(*_marginal_entries(state, keep))


def single_qubit_spectra(state: PureState) -> np.ndarray:
    """Qubit q's marginal spectrum, ascending, in row q - 1: one eigvalsh on the stacked Grams, no `DensityMatrix`."""
    grams = np.array([_marginal_entries(state, [q])[1] for q in range(1, state.num_qubits + 1)])
    return np.linalg.eigvalsh(grams)


def partial_transpose(rho: DensityMatrix | LinearOperator, subsystem: int) -> LinearOperator:
    """Transpose the indices of one qubit; Hermitian and trace preserving, not necessarily positive.

    Also accepts a LinearOperator over qubits (e.g. its own output, since the
    operation is an involution).
    """
    if isinstance(rho, DensityMatrix):
        n = rho.num_qubits
    else:
        n = rho.dim.bit_length() - 1
        if 2**n != rho.dim:
            raise ValueError(f"operator dimension {rho.dim} is not a power of two")
    if not 1 <= subsystem <= n:
        raise ValueError(f"subsystem {subsystem} out of range 1..{n}")
    axes = list(range(2 * n))
    axes[subsystem - 1], axes[n + subsystem - 1] = axes[n + subsystem - 1], axes[subsystem - 1]
    d = rho.entries.shape[0]
    mat = rho.entries.reshape([2] * (2 * n)).transpose(axes).reshape(d, d)
    return LinearOperator(d, mat, hermitian=bool(np.max(np.abs(mat - mat.conj().T)) <= CONSTRUCTION_TOL))


def hermitian_eigenvalues(op: LinearOperator | DensityMatrix) -> np.ndarray:
    """Real eigenvalues in ascending order; rejects inputs that are not Hermitian within 1e-10."""
    m = op.entries
    asym = np.max(np.abs(m - m.conj().T))
    if asym > 1e-10:
        raise ValueError(f"matrix is not Hermitian within 1e-10 (asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(m)


def entropy_of_eigenvalues(evals: np.ndarray) -> float:
    """-sum(l log2 l) over a density matrix's eigenvalues, in bits, with 0 log 0 := 0."""
    evals = evals[evals > ENTROPY_CUTOFF]
    return float(-np.sum(evals * np.log2(evals)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """-tr(rho log2 rho) in bits, with 0 log 0 := 0."""
    return entropy_of_eigenvalues(np.linalg.eigvalsh(rho.entries))


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p) in bits."""
    if p < -CONSTRUCTION_TOL or p > 1.0 + CONSTRUCTION_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    total = 0.0
    for q in (p, 1.0 - p):
        if q > ENTROPY_CUTOFF:
            total -= q * np.log2(q)
    return float(total)


def equal_up_to_global_phase(a: PureState, b: PureState, tol: float = 1e-10) -> bool:
    """True iff |<a|b>| >= 1 - tol. Both states must be normalized."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    if not (a.normalized and b.normalized):
        raise ValueError("phase comparison requires normalized states")
    return bool(abs(np.vdot(a.amplitudes, b.amplitudes)) >= 1.0 - tol)


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 of two pure states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def apply_gate(state: PureState, qubits, gate: LinearOperator) -> PureState:
    """Apply a gate to the given qubits (their order matches the gate's index order)."""
    n = state.num_qubits
    targets = _check_qubit_labels(n, qubits)
    m = len(targets)
    if gate.dim != 2 ** m:
        raise ValueError(f"gate dimension {gate.dim} does not act on {m} qubit(s)")
    psi = state.amplitudes.reshape([2] * n)
    u = gate.entries.reshape([2] * (2 * m))
    moved = np.tensordot(u, psi, axes=(list(range(m, 2 * m)), [q - 1 for q in targets]))
    rest = [ax for ax in range(n) if ax + 1 not in targets]
    order = [q - 1 for q in targets] + rest
    out = moved.transpose(np.argsort(order)).reshape(-1)
    return PureState(n, out, normalized=state.normalized and gate.unitary)


def project(state: PureState, qubits, target) -> tuple[float, np.ndarray]:
    """Project the given qubits onto a unit-norm target vector.

    Returns the Born probability and the unnormalized residual amplitudes of
    the remaining qubits (ascending label order).
    """
    n = state.num_qubits
    targets = _check_qubit_labels(n, qubits)
    m = len(targets)
    if m >= n:
        raise ValueError("projection must leave at least one qubit")
    t = np.asarray(target, dtype=complex).reshape([2] * m)
    psi = state.amplitudes.reshape([2] * n)
    residual = np.tensordot(t.conj(), psi, axes=(list(range(m)), [q - 1 for q in targets]))
    residual = residual.reshape(-1)
    prob = float(np.vdot(residual, residual).real)
    return prob, residual


def is_product_state(state: PureState, tol: float = PRODUCT_TOL) -> bool:
    """True iff every single-qubit marginal is pure within tol."""
    if state.num_qubits == 1:
        return True
    for q in range(1, state.num_qubits + 1):
        low = float(np.linalg.eigvalsh(_marginal_entries(state, [q])[1])[0])
        if low > tol:
            return False
    return True
