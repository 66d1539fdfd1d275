"""Entanglement measures and obstruction certificates for ZSA states.

Every closed form here has an independent dense-linear-algebra oracle (an
eigensolver or a partial trace); report serializers include both values and
their difference so disagreement is visible rather than silently absorbed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import (
    PAULI_Y,
    POSITIVITY_TOL,
    DensityMatrix,
    LinearOperator,
    binary_entropy,
    hermitian_eigenvalues,
    partial_transpose,
)
from .protocol import CobwebState
from .states import ZsaAmplitudes


@dataclass(frozen=True, eq=False)
class PptReport:
    """Partial transpose of the pair marginal with its closed-form spectrum.

    ``eigenvalues`` keeps the closed-form labeling (|c2|^2, |c3|^2, then the
    coherence-block pair); ``separable`` is the positivity verdict.
    """

    matrix: LinearOperator
    eigenvalues: tuple[float, float, float, float]
    separable: bool

    def to_dict(self) -> dict:
        oracle = hermitian_eigenvalues(self.matrix)
        closed = np.sort(np.array(self.eigenvalues))
        return {
            "closed_form_eigenvalues": list(self.eigenvalues),
            "oracle_eigenvalues": [float(v) for v in oracle],
            "max_abs_difference": float(np.max(np.abs(closed - oracle))),
            "min_eigenvalue": float(oracle[0]),
            "separable": self.separable,
            "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in self.matrix.entries],
        }


@dataclass(frozen=True)
class CobwebSpectrum:
    """Closed-form marginal spectrum of a tripartite output state.

    epsilon is the determinant of either single-qubit marginal; the
    eigenvalues are eta_pm = (1 +- sqrt(1 - 4 epsilon))/2 and the
    entanglement is their binary entropy.
    """

    epsilon: float
    eta_plus: float
    eta_minus: float
    entanglement: float

    def to_dict(self) -> dict:
        return {
            "epsilon": self.epsilon,
            "eta_plus": self.eta_plus,
            "eta_minus": self.eta_minus,
            "entanglement_bits": self.entanglement,
        }


def ppt_report(z: ZsaAmplitudes, pair: DensityMatrix) -> PptReport:
    """Partial transpose (second subsystem) of the pair marginal ``pair`` = `reduced_pair(z)`, with spectrum.

    Closed-form eigenvalues: |c2|^2, |c3|^2, (|c1|^2 +- sqrt(|c1|^4 +
    4|c2|^2|c3|^2))/2.  The last one is negative for every valid input, which
    certifies inseparability of the pair marginal.
    """
    if z.num_parties != 3:
        raise ValueError("the PPT report covers the tripartite pair marginal")
    pt = partial_transpose(pair, subsystem=2)
    a1, a2, a3 = (float(abs(c) ** 2) for c in z.coeffs)
    root = math.sqrt(a1**2 + 4.0 * a2 * a3)
    eigenvalues = (a2, a3, 0.5 * (a1 + root), 0.5 * (a1 - root))
    return PptReport(
        matrix=pt,
        eigenvalues=eigenvalues,
        separable=min(eigenvalues) >= -POSITIVITY_TOL,
    )


def entanglement_of_formation(z: ZsaAmplitudes) -> float:
    """Closed-form pair-marginal entanglement of formation, in bits.

    H2((1 + sqrt(1 - 4|c2|^2|c3|^2))/2); cross-checked against the
    concurrence route in the test suite.
    """
    if z.num_parties != 3:
        raise ValueError("the pair entanglement of formation covers the tripartite state")
    prod = float(abs(z.coeffs[1]) ** 2 * abs(z.coeffs[2]) ** 2)
    return binary_entropy(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * prod))))


def concurrence(rho: DensityMatrix) -> float:
    """Wootters concurrence of a two-qubit density matrix via the spin-flip spectrum.

    Works with the Hermitian form sqrt(rho) rho_tilde sqrt(rho), which shares
    its nonzero spectrum with rho rho_tilde but keeps full eigensolver
    precision (the non-Hermitian route loses half the digits).
    """
    if rho.num_qubits != 2:
        raise ValueError("concurrence is defined for two-qubit density matrices")
    yy = np.kron(PAULI_Y.entries, PAULI_Y.entries)
    m = rho.entries
    evals, vecs = np.linalg.eigh(m)
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    mm = sqrt_rho @ (yy @ m.conj() @ yy) @ sqrt_rho
    squared = np.linalg.eigvalsh(mm)
    # eigenvalues at the round-off floor are exact zeros; the square root
    # would otherwise blow 1e-17 noise up to 1e-8
    lam = np.sqrt(np.where(squared > 1e-14, squared, 0.0))
    return float(max(0.0, lam[3] - lam[2] - lam[1] - lam[0]))


def eof_from_concurrence(con: float) -> float:
    """Entanglement of formation in bits as a function of concurrence."""
    if not -1e-12 <= con <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {con!r} outside [0, 1]")
    con = min(max(con, 0.0), 1.0)
    return binary_entropy(0.5 * (1.0 + math.sqrt(1.0 - con**2)))


def splitting_entropy(z: ZsaAmplitudes, k: int) -> float:
    """Bipartite entanglement of party k versus the rest, in bits.

    -(1-|c_k|^2) log2 (1-|c_k|^2) - |c_k|^2 log2 |c_k|^2, which is the von
    Neumann entropy of the single-party marginal.
    """
    if not 1 <= k <= z.num_parties:
        raise ValueError(f"party index {k} out of range 1..{z.num_parties}")
    return binary_entropy(float(abs(z.coeffs[k - 1]) ** 2))


def cobweb_spectrum(c: CobwebState) -> CobwebSpectrum:
    """Closed-form spectrum of either single-qubit marginal of a tripartite output.

    epsilon = N^4 |w|^4 |c2|^2 |c3|^2 where w is the amplitude on the
    non-reference axis (beta for reference bit 0, alpha for reference bit 1)
    and N is the output's normalization constant.  Note: no extra factor of
    4 in epsilon; the determinant identity eta+ eta- = det(marginal) pins it.
    """
    if c.zsa.num_parties != 3:
        raise ValueError("the closed-form spectrum covers tripartite outputs")
    off_axis = abs(c.qubit.beta) if c.reference_bit == 0 else c.qubit.alpha
    a2 = float(abs(c.zsa.coeffs[1]) ** 2)
    a3 = float(abs(c.zsa.coeffs[2]) ** 2)
    eps = c.norm_constant**4 * off_axis**4 * a2 * a3
    disc = math.sqrt(max(0.0, 1.0 - 4.0 * eps))
    eta_plus = 0.5 * (1.0 + disc)
    eta_minus = 0.5 * (1.0 - disc)
    return CobwebSpectrum(
        epsilon=float(eps),
        eta_plus=eta_plus,
        eta_minus=eta_minus,
        entanglement=binary_entropy(eta_plus),
    )


def scaling_curve(n_max: int) -> list[tuple[int, float]]:
    """Splitting entanglement H2(1/N) of the Nth-roots state for N = 2..n_max."""
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    return [(n, binary_entropy(1.0 / n)) for n in range(2, n_max + 1)]
