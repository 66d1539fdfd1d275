"""Entanglement measures and obstruction certificates for ZSA states.

Every closed form here has an independent oracle: a dense eigensolver or a
partial trace, or for a single-qubit marginal the 2x2 Gram of the state's
slots (`marginal_spectrum`).  A report is the dict that `qcobweb measures`
prints, with both values and their difference, so disagreement is visible
rather than silently absorbed.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .linalg import POSITIVITY_TOL, DensityMatrix, binary_entropy, hermitian_eigenvalues, partial_transpose
from .protocol import CobwebState
from .states import ZsaAmplitudes

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Y.setflags(write=False)
PAULI_YY = np.kron(PAULI_Y, PAULI_Y)
PAULI_YY.setflags(write=False)


def ppt_report(z: ZsaAmplitudes, pair: DensityMatrix) -> dict:
    """Partial transpose (second subsystem) of the pair marginal ``pair`` = `reduced_pair(z)`, with spectrum.

    Closed-form eigenvalues: |c2|^2, |c3|^2, (|c1|^2 +- sqrt(|c1|^4 +
    4|c2|^2|c3|^2))/2, in that order.  The last one is negative for every
    valid input, which certifies inseparability of the pair marginal;
    ``separable`` is the positivity verdict.
    """
    if z.num_parties != 3:
        raise ValueError("the PPT report covers the tripartite pair marginal")
    pt = partial_transpose(pair.entries, subsystem=2)
    a1, a2, a3 = (float(abs(c) ** 2) for c in z.coeffs)
    root = math.sqrt(a1**2 + 4.0 * a2 * a3)
    eigenvalues = [a2, a3, 0.5 * (a1 + root), 0.5 * (a1 - root)]
    oracle = hermitian_eigenvalues(pt)
    return {
        "closed_form_eigenvalues": eigenvalues,
        "oracle_eigenvalues": [float(v) for v in oracle],
        "max_abs_difference": float(np.max(np.abs(np.sort(eigenvalues) - oracle))),
        "min_eigenvalue": float(oracle[0]),
        "separable": min(eigenvalues) >= -POSITIVITY_TOL,
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in pt],
    }


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
    m = rho.entries
    evals, vecs = np.linalg.eigh(m)
    sqrt_rho = (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.conj().T
    mm = sqrt_rho @ (PAULI_YY @ m.conj() @ PAULI_YY) @ sqrt_rho
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


def marginal_spectrum(parts, j: int) -> tuple[float, float]:
    """Ascending spectrum of qubit j's marginal of a one-hot state, from its slots alone: no dense state, no BLAS.

    ``parts`` holds the slots as (re, im) floats in turn, as a `BellTable` row does: slot 0 on the all-r string, slot
    k on it with qubit k flipped; the shared state is the row (0, c_1, ..., c_N).  With s = |a_j|^2 and top the fsum of
    every other |a_k|^2, the marginal is [[top, a_0 a_j*], [., s]]: eigenvalues mean -+ hypot((top - s)/2, |a_0||a_j|)
    with mean = (top + s)/2, a form that keeps the gap of a near-degenerate pair, which (T +- sqrt(T^2 - 4 s top))/2
    loses to cancellation."""
    weights = [re * re + im * im for re, im in zip(parts[::2], parts[1::2])]
    if not 1 <= j < len(weights):
        raise ValueError(f"qubit {j} out of range 1..{len(weights) - 1}")
    s, top = weights[j], math.fsum(weights[:j] + weights[j + 1:])
    mean = 0.5 * (top + s)
    half = math.hypot(0.5 * (top - s), math.hypot(parts[0], parts[1]) * math.hypot(parts[2 * j], parts[2 * j + 1]))
    return mean - half, mean + half


def cobweb_spectrum(c: CobwebState) -> dict:
    """Closed-form spectrum of either single-qubit marginal of a tripartite output.

    epsilon = N^4 |w|^4 |c2|^2 |c3|^2 is the determinant of either marginal,
    where w is the amplitude on the non-reference axis (beta for reference
    bit 0, alpha for reference bit 1) and N is the output's normalization
    constant.  Note: no extra factor of 4 in epsilon; the determinant identity
    eta+ eta- = det(marginal) pins it.  The eigenvalues are
    eta_pm = (1 +- sqrt(1 - 4 epsilon))/2 and the entanglement is their
    binary entropy.
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
    return {
        "epsilon": float(eps),
        "eta_plus": eta_plus,
        "eta_minus": eta_minus,
        "entanglement_bits": binary_entropy(eta_plus),
    }


def scaling_curve(n_max: int) -> Iterator[tuple[int, float]]:
    """Splitting entanglement H2(1/N) of the Nth-roots state for N = 2..n_max, one (N, H2(1/N)) pair at a time."""
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    return ((n, binary_entropy(1.0 / n)) for n in range(2, n_max + 1))
