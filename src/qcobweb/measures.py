"""Entanglement measures and obstruction certificates for ZSA states.

Every closed form here has an independent oracle: a dense eigensolver or a
partial trace, or for a single-qubit marginal the 2x2 Gram of the state's
slots (`marginal_spectrum`).  A report is the dict that `qcobweb measures`
prints, with both values and their difference, so disagreement is visible
rather than silently absorbed.  A two-level entropy is H2 of its smaller root.
"""
from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np

from .linalg import (POSITIVITY_TOL, DensityMatrix, binary_entropy, hermitian_eigenvalues, partial_transpose,
                     two_level_spectrum)
from .protocol import CobwebState
from .states import ZsaAmplitudes

PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Y.setflags(write=False)
PAULI_YY = np.kron(PAULI_Y, PAULI_Y)
PAULI_YY.setflags(write=False)


def ppt_report(z: ZsaAmplitudes, pair: DensityMatrix) -> dict:
    """Partial transpose (second subsystem) of the pair marginal ``pair`` = `reduced_pair(z)`, with spectrum.

    Closed-form eigenvalues, in order: |c2|^2, |c3|^2 and the roots of trace
    |c1|^2 and determinant -|c2|^2|c3|^2, larger first (`two_level_spectrum`).
    The last is negative for every valid input, which certifies inseparability
    of the pair marginal; ``separable`` is the positivity verdict.
    """
    if z.num_parties != 3:
        raise ValueError("the PPT report covers the tripartite pair marginal")
    pt = partial_transpose(pair.entries, subsystem=2)
    a1, a2, a3 = (abs(c) ** 2 for c in z.coeffs)
    small, large = two_level_spectrum(a1, -a2 * a3)
    eigenvalues = [a2, a3, large, small]
    oracle = hermitian_eigenvalues(pt)
    return {
        "closed_form_eigenvalues": eigenvalues,
        "oracle_eigenvalues": [float(v) for v in oracle],
        "max_abs_difference": float(np.max(np.abs(np.sort(eigenvalues) - oracle))),
        "min_eigenvalue": float(oracle[0]),
        "separable": min(eigenvalues) >= -POSITIVITY_TOL,
        "matrix": [[[float(v.real), float(v.imag)] for v in row] for row in pt],
    }


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
    """Wootters' entanglement of formation in bits at concurrence C: H2 of the smaller root of trace 1 and determinant
    C^2/4, (1 - sqrt(1 - C^2))/2 without its cancellation.  A tripartite ZSA state's pair marginal has C = 2|c2||c3|."""
    if not -1e-12 <= con <= 1.0 + 1e-12:
        raise ValueError(f"concurrence {con!r} outside [0, 1]")
    return binary_entropy(two_level_spectrum(1.0, con * con / 4.0)[0])


def splitting_entropy(z: ZsaAmplitudes, k: int) -> float:
    """Bipartite entanglement of party k versus the rest, in bits.

    -(1-|c_k|^2) log2 (1-|c_k|^2) - |c_k|^2 log2 |c_k|^2, which is the von
    Neumann entropy of the single-party marginal.
    """
    if not 1 <= k <= z.num_parties:
        raise ValueError(f"party index {k} out of range 1..{z.num_parties}")
    return binary_entropy(abs(z.coeffs[k - 1]) ** 2)


def marginal_spectrum(parts, j: int) -> tuple[float, float]:
    """Ascending spectrum of qubit j's marginal of a one-hot state, from its slots alone: no dense state, no BLAS.

    ``parts`` holds the slots as (re, im) floats in turn, as a `BellTable` row does: slot 0 on the all-r string, slot
    k on it with qubit k flipped; the shared state is the row (0, c_1, ..., c_N).  With s = |a_j|^2 and top the fsum of
    every other |a_k|^2, the marginal is [[top, a_0 a_j*], [., s]]: the larger eigenvalue is mean + hypot((top - s)/2,
    |a_0||a_j|), mean = (top + s)/2, which keeps a near-degenerate gap, and the smaller the determinant s r over it,
    r the fsum of the other flipped |a_k|^2 (`bell_table`'s d_j), which keeps its relative precision."""
    weights = [re * re + im * im for re, im in zip(parts[::2], parts[1::2])]
    if not 1 <= j < len(weights):
        raise ValueError(f"qubit {j} out of range 1..{len(weights) - 1}")
    s, top, rest = weights[j], math.fsum(weights[:j] + weights[j + 1:]), math.fsum(weights[1:j] + weights[j + 1:])
    mean = 0.5 * (top + s)
    large = mean + math.hypot(0.5 * (top - s), math.hypot(*parts[:2]) * math.hypot(*parts[2 * j:2 * j + 2]))
    return s * rest / large, large


def cobweb_spectrum(c: CobwebState) -> dict:
    """Closed-form spectrum of either single-qubit marginal of a tripartite output.

    epsilon = N^4 |w|^4 |c2|^2 |c3|^2 is the determinant of either marginal,
    where w is the amplitude on the non-reference axis (beta for reference
    bit 0, alpha for reference bit 1) and N is the output's normalization
    constant.  Note: no extra factor of 4 in epsilon; the determinant identity
    eta+ eta- = det(marginal) pins it.  The eigenvalues eta_pm are the roots of
    trace 1 and determinant epsilon (`two_level_spectrum`, so eta_minus keeps
    its relative precision), and the entanglement is H2(eta_minus), as precise.
    """
    if c.zsa.num_parties != 3:
        raise ValueError("the closed-form spectrum covers tripartite outputs")
    off_axis = abs(c.qubit.beta) if c.reference_bit == 0 else c.qubit.alpha
    eps = c.norm_constant**4 * off_axis**4 * abs(c.zsa.coeffs[1]) ** 2 * abs(c.zsa.coeffs[2]) ** 2
    eta_minus, eta_plus = two_level_spectrum(1.0, eps)
    return {
        "epsilon": eps,
        "eta_plus": eta_plus,
        "eta_minus": eta_minus,
        "entanglement_bits": binary_entropy(eta_minus),
    }


def scaling_curve(n_max: int) -> Iterator[tuple[int, float]]:
    """Splitting entanglement H2(1/N) of the Nth-roots state for N = 2..n_max, one (N, H2(1/N)) pair at a time."""
    if n_max < 3:
        raise ValueError(f"n_max must be at least 3, got {n_max}")
    return ((n, binary_entropy(1.0 / n)) for n in range(2, n_max + 1))
