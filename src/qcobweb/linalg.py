"""Small dense complex linear algebra for the reports and their oracles.

The protocol runs on each output's N slots (see `protocol`), as does every
single-qubit marginal a report prints (`measures.marginal_spectrum`).  The
dense states and matrices here serve the `measures` pair oracles, the CNOT
recovery, the negative control and the printed dense view of an output; the
tests' own dense oracles, the Pauli gates among them, are in tests/oracles.py.
States are checked value classes (`PureState`, `DensityMatrix`); a gate or
any other operator is a plain square complex numpy array.

Conventions used by every module in this package:

* Qubits are labeled 1..n and ordered big-endian: qubit 1 is the most
  significant bit of a computational-basis index.
* All entropies and logarithms are base 2 (bits / ebits); `binary_entropy`
  takes libm's `math.log2` and `math.log1p`, so its bits do not follow
  numpy's SIMD dispatch, and it keeps its relative precision at small p.
* Construction checks use a 1e-12 tolerance; eigenvalue positivity allows
  1e-10 of eigensolver noise; an eigenvalue, or a `binary_entropy` p or
  1 - p, of at most 1e-14 counts as exactly zero in entropy sums.
* A 2x2 Hermitian spectrum known by its trace and determinant comes from
  `two_level_spectrum`, whose roots do not cancel; its entropy is H2(small).
* A state is a product state when the smaller eigenvalue of every
  single-qubit marginal is at most 1e-9 (PRODUCT_TOL); a Bell branch with
  probability below 1e-14 is degenerate (protocol.DEGENERATE_PROBABILITY).

The state classes are immutable after construction and every operation is
a pure function, so concurrent use is safe.
"""
from __future__ import annotations

import math
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
    """Dense statevector over ``num_qubits`` qubits, of unit norm within `CONSTRUCTION_TOL`."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        if self.num_qubits < 1:
            raise ValueError("a state needs at least one qubit")
        amp = _readonly_complex(self.amplitudes, -1)
        if amp.size != 2 ** self.num_qubits:
            raise ValueError(
                f"expected {2 ** self.num_qubits} amplitudes for "
                f"{self.num_qubits} qubits, got {amp.size}"
            )
        nrm = float(np.vdot(amp, amp).real)
        if abs(nrm - 1.0) > CONSTRUCTION_TOL:
            raise ValueError(f"state has squared norm {nrm!r}, expected 1")
        object.__setattr__(self, "amplitudes", amp)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


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


def partial_transpose(matrix: np.ndarray, subsystem: int) -> np.ndarray:
    """A 2^n x 2^n matrix with the indices of one qubit transposed.

    An involution; it keeps a density matrix's trace and Hermiticity, not necessarily its positivity.
    """
    d = matrix.shape[0]
    n = d.bit_length() - 1
    if matrix.shape != (d, d) or 2**n != d:
        raise ValueError(f"a matrix of shape {matrix.shape} does not act on qubits")
    if not 1 <= subsystem <= n:
        raise ValueError(f"subsystem {subsystem} out of range 1..{n}")
    axes = list(range(2 * n))
    axes[subsystem - 1], axes[n + subsystem - 1] = axes[n + subsystem - 1], axes[subsystem - 1]
    return matrix.reshape([2] * (2 * n)).transpose(axes).reshape(d, d)


def hermitian_eigenvalues(m: np.ndarray) -> np.ndarray:
    """Real eigenvalues of a matrix in ascending order; rejects one that is not Hermitian within 1e-10."""
    asym = np.max(np.abs(m - m.conj().T))
    if asym > 1e-10:
        raise ValueError(f"matrix is not Hermitian within 1e-10 (asymmetry {asym:.3e})")
    return np.linalg.eigvalsh(m)


def binary_entropy(p: float) -> float:
    """H2(p) = -p log2 p - (1-p) log2 (1-p) in bits, with log2 (1-p) taken as log1p(-p) / ln 2, so the rounding of
    1 - p never enters a logarithm, and 0.0 where min(p, 1 - p) <= `ENTROPY_CUTOFF`.  libm's logarithms, not numpy's,
    whose last bit follows its SIMD target.  Pass the smaller of p and 1 - p: a p near 1 has lost its digits."""
    if p < -CONSTRUCTION_TOL or p > 1.0 + CONSTRUCTION_TOL:
        raise ValueError(f"probability {p!r} outside [0, 1]")
    p = min(max(float(p), 0.0), 1.0)
    if min(p, 1.0 - p) <= ENTROPY_CUTOFF:
        return 0.0
    return -(p * math.log2(p) + (1.0 - p) * math.log1p(-p) / math.log(2.0))


def two_level_spectrum(trace: float, det: float) -> tuple[float, float]:
    """(small, large) eigenvalues of a 2x2 Hermitian matrix of this trace and determinant, for trace > 0 or det < 0:
    large = trace/2 + sqrt(max((trace/2)^2 - det, 0)) and small = det / large, so neither root cancels.  A det that
    rounding put past (trace/2)^2 gives the degenerate pair (trace/2, trace/2)."""
    half = 0.5 * trace
    large = half + math.sqrt(max(half * half - det, 0.0))
    return min(det / large, large), large


def state_fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 of two pure states."""
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")
    return float(abs(np.vdot(a.amplitudes, b.amplitudes)) ** 2)


def apply_gate(state: PureState, qubits, gate: np.ndarray) -> PureState:
    """Apply a unitary gate matrix to the given qubits (their order matches the gate's index order)."""
    n = state.num_qubits
    targets = _check_qubit_labels(n, qubits)
    m = len(targets)
    if gate.shape != (2**m, 2**m):
        raise ValueError(f"a gate of shape {gate.shape} does not act on {m} qubit(s)")
    psi = state.amplitudes.reshape([2] * n)
    u = gate.reshape([2] * (2 * m))
    moved = np.tensordot(u, psi, axes=(list(range(m, 2 * m)), [q - 1 for q in targets]))
    rest = [ax for ax in range(n) if ax + 1 not in targets]
    order = [q - 1 for q in targets] + rest
    out = moved.transpose(np.argsort(order)).reshape(-1)
    return PureState(n, out)


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
