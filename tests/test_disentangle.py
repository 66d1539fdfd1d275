import math
import re

import numpy as np
import pytest

from qcobweb import disentangle
from qcobweb.disentangle import (
    cnot_disentangle,
    obstruction,
    success_probability_sign,
)
from qcobweb.protocol import BellOutcome, DegenerateBranch, run_protocol
from qcobweb.states import UnknownQubit, ZsaAmplitudes, random_zsa, roots_of_unity_zsa

from _helpers import random_qubit, reference_0_output
from oracles import cobweb_state, orthogonal_complement, target_vector

CUBE = roots_of_unity_zsa(3)


def zero_cross_family(a: float = 0.5):
    """c2 = a, c3 = ia, c1 = -a(1+i): all nonzero, yet Re(c2 c3*) = 0."""
    return ZsaAmplitudes([-a * (1 + 1j), a, 1j * a])


def test_orthogonal_complement():
    """The oracle's complement is orthogonal to the qubit, and it is the qubit (pi - theta, phi + pi) that
    `obstruction` runs the protocol on, up to a global phase."""
    rng = np.random.default_rng(2)
    for _ in range(20):
        q = random_qubit(rng)
        assert abs(np.vdot(q.vector(), orthogonal_complement(q))) < 1e-15
        flipped = UnknownQubit(np.pi - q.theta, q.phi + np.pi).vector()
        assert abs(abs(np.vdot(orthogonal_complement(q), flipped)) - 1.0) < 1e-15


# --- obstruction -------------------------------------------------------------


def test_obstruction_vanishes_at_pole():
    report = obstruction(reference_0_output(UnknownQubit(0.0), CUBE))
    assert report["closed_form"] == 0.0
    assert report["simulated"] < 1e-15


def test_obstruction_cube_roots_positive():
    report = obstruction(reference_0_output(UnknownQubit(np.pi / 2, 0.0), CUBE))
    # Re(c2 c3*) = cos(2 pi / 3)/3 = -1/6 for the cube roots
    cross = (CUBE.coeffs[1] * np.conj(CUBE.coeffs[2])).real
    assert cross == pytest.approx(-1 / 6, abs=1e-15)
    assert report["closed_form"] > 0.3
    assert abs(report["closed_form"] - report["simulated"]) < 1e-11


def test_obstruction_matches_inner_product_oracle():
    rng = np.random.default_rng(3)
    for _ in range(300):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        report = obstruction(reference_0_output(q, z))
        assert abs(report["closed_form"] - report["simulated"]) < 1e-11


def test_obstruction_oracle_matches_the_dense_inner_product():
    """`simulated`, the overlap of two `bell_table` rows, against the modulus of the normalized inner product of the
    dense targets for |psi> and its orthogonal complement, on the 300 seeded states of the closed-form check."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        v, w = target_vector(q.vector(), z, 0), target_vector(orthogonal_complement(q), z, 0)
        dense = abs(np.vdot(v, w)) / (np.linalg.norm(v) * np.linalg.norm(w))
        assert abs(obstruction(reference_0_output(q, z))["simulated"] - dense) < 1e-14


def test_obstruction_refuses_a_degenerate_output_row():
    """With |c_1| = 1e-8 and theta = 1e-8 the output for |psi> has probability 6.2e-17, below
    `DEGENERATE_PROBABILITY`, so its row is left unnormalized: the overlap would read 3.5e-9 against a closed form
    of 0.47.  Building that output raises instead, so `obstruction` never reads it."""
    r = np.sqrt((1 - 1.5e-16) / 2)
    z = ZsaAmplitudes([1e-8, -5e-9 + 1j * r, -5e-9 - 1j * r])
    line = "PsiMinus (reference-0 output) at theta = 1e-08, phi = 0.0 has probability 6.249999999999999e-17, below 1e-14"
    with pytest.raises(DegenerateBranch, match=f"^{re.escape(line)}$"):
        obstruction(reference_0_output(UnknownQubit(1e-8), z))


def test_obstruction_requires_reference_zero_tripartite():
    """`obstruction` takes the reference-0 output, as `cnot_disentangle` does, and refuses any other."""
    rng = np.random.default_rng(12)
    with pytest.raises(ValueError, match="^the obstruction is defined for reference bit 0$"):
        obstruction(run_protocol(UnknownQubit(1.0), CUBE, outcome=BellOutcome.PHI_MINUS).final)
    with pytest.raises(ValueError, match="^the obstruction is computed for the tripartite output$"):
        obstruction(reference_0_output(random_qubit(rng), random_zsa(4, rng)))


def test_obstruction_zero_cross_family():
    z = zero_cross_family()
    cross = (z.coeffs[1] * np.conj(z.coeffs[2])).real
    assert cross == 0.0  # exactly, not just approximately
    report = obstruction(reference_0_output(UnknownQubit(np.pi / 2, 0.7), z))
    assert report["closed_form"] == 0.0
    assert report["simulated"] < 1e-15
    # the report echoes the inputs it was computed from
    assert report["theta"] == pytest.approx(np.pi / 2)
    assert report["phi"] == 0.7
    assert report["coeffs"] == [[c.real, c.imag] for c in z.coeffs]


def test_obstruction_report_serialization():
    doc = obstruction(reference_0_output(UnknownQubit(1.0, 0.5), CUBE))
    assert list(doc) == ["closed_form", "simulated", "abs_difference", "theta", "phi", "coeffs"]
    assert doc["abs_difference"] == abs(doc["closed_form"] - doc["simulated"]) < 1e-11
    assert len(doc["coeffs"]) == 3


# --- CNOT recovery ------------------------------------------------------------


def test_recovery_pole_input():
    result = cnot_disentangle(cobweb_state(UnknownQubit(0.0), CUBE, 0))
    assert result["success_fidelity"] >= 1 - 1e-12  # |+> branch still returns |0>
    assert result["simulated_probability"] == pytest.approx(0.5, abs=1e-12)


def test_recovery_cube_roots_equator():
    result = cnot_disentangle(cobweb_state(UnknownQubit(np.pi / 2, 0.0), CUBE, 0))
    assert result["closed_form_probability"] == pytest.approx(1 / 3, abs=1e-12)
    assert result["simulated_probability"] == pytest.approx(1 / 3, abs=1e-12)
    assert result["success_fidelity"] >= 1 - 1e-12
    assert list(result) == ["simulated_probability", "closed_form_probability", "abs_difference",
                            "success_fidelity", "success_state"]


def test_recovery_random_states():
    rng = np.random.default_rng(5)
    for _ in range(300):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        result = cnot_disentangle(cobweb_state(q, z, 0))
        assert result["success_fidelity"] >= 1 - 1e-12
        assert abs(result["simulated_probability"] - result["closed_form_probability"]) < 1e-12
        assert 0.0 < result["simulated_probability"] < 1.0


def test_recovery_branch_probabilities_sum():
    rng = np.random.default_rng(7)
    from qcobweb.disentangle import CNOT, PLUS
    from qcobweb.linalg import apply_gate, project

    minus = np.array([1.0, -1.0], dtype=complex) / math.sqrt(2.0)

    for _ in range(50):
        z = random_zsa(3, rng)
        q = random_qubit(rng)
        cw = cobweb_state(q, z, 0)
        after = apply_gate(cw.vector, (1, 2), CNOT)
        p_plus, _ = project(after, [1], PLUS)
        p_minus, _ = project(after, [1], minus)
        assert p_plus + p_minus == pytest.approx(1.0, abs=1e-12)


def test_recovery_numerator_identity():
    # |c2 + c3|^2 = |c1|^2 for every zero-sum input
    rng = np.random.default_rng(9)
    for _ in range(200):
        z = random_zsa(3, rng)
        c1, c2, c3 = z.coeffs
        assert abs(c2 + c3) ** 2 == pytest.approx(abs(c1) ** 2, abs=1e-12)


def test_recovery_requires_reference_zero_tripartite():
    rng = np.random.default_rng(11)
    with pytest.raises(ValueError):
        cnot_disentangle(cobweb_state(UnknownQubit(1.0), CUBE, 1))
    with pytest.raises(ValueError):
        cnot_disentangle(cobweb_state(random_qubit(rng), random_zsa(4, rng), 0))


# --- sign rule ------------------------------------------------------------------


def test_sign_rule_positive_cross():
    # c2 = c3 = -1/sqrt6, c1 = 2/sqrt6: Re(c2* c3) = 1/6 > 0
    z = ZsaAmplitudes(np.array([2.0, -1.0, -1.0]) / math.sqrt(6.0))
    report = success_probability_sign(z, UnknownQubit(np.pi / 2))
    assert report["re_c2_conj_c3"] == pytest.approx(1 / 6, abs=1e-15)
    assert report["probability"] == pytest.approx(2 / 3, abs=1e-12)
    assert report["better_than_half"] is True
    assert report["sign"] == 1


def test_sign_rule_cube_roots():
    report = success_probability_sign(CUBE, UnknownQubit(np.pi / 2))
    assert report["probability"] == pytest.approx(1 / 3, abs=1e-12)
    assert report["better_than_half"] is False
    assert report["re_c2_conj_c3"] < 0
    assert report["sign"] == -1
    assert list(report) == ["probability", "better_than_half", "re_c2_conj_c3", "sign"]


def test_sign_rule_zero_cross_gives_exact_half():
    report = success_probability_sign(zero_cross_family(), UnknownQubit(1.1, 0.3))
    assert report["probability"] == 0.5
    assert report["better_than_half"] is False
    assert report["sign"] == 0


def test_sign_rule_random_states():
    rng = np.random.default_rng(13)
    for _ in range(300):
        z = random_zsa(3, rng)
        theta = float(rng.uniform(0.05, np.pi - 0.05))
        report = success_probability_sign(z, UnknownQubit(theta, float(rng.uniform(0, 2 * np.pi))))
        assert report["better_than_half"] == (report["re_c2_conj_c3"] > 0)


def test_sign_rule_near_the_poles_and_at_tiny_crosses():
    """Where P rounds to 1/2 the verdict still follows Re(c2* c3), and a rounded P never lands on the wrong side."""
    rng = np.random.default_rng(14)
    for _ in range(300):
        phase = np.exp(1j * rng.uniform(0, 2 * np.pi))
        delta = float(rng.choice([-1.0, 1.0])) * 10.0 ** float(rng.uniform(-18, -12))
        c2, c3 = phase, phase * (1j + delta)  # Re(c2* c3) = delta
        coeffs = np.array([-(c2 + c3), c2, c3])
        z = ZsaAmplitudes(coeffs / np.linalg.norm(coeffs))
        for theta in (10.0 ** float(rng.uniform(-170, 0)), math.pi - 10.0 ** float(rng.uniform(-15, 0))):
            q = UnknownQubit(theta)
            report = success_probability_sign(z, q)
            assert report["better_than_half"] == (report["re_c2_conj_c3"] > 0)


def test_sign_rule_flags_a_probability_on_the_wrong_side(monkeypatch):
    monkeypatch.setattr(disentangle, "_recovery_probability", lambda z, alpha: (0.4, 1 / 6))
    with pytest.raises(RuntimeError, match="sign rule violated"):
        success_probability_sign(CUBE, UnknownQubit(np.pi / 2))


def test_sign_rule_rejects_poles():
    with pytest.raises(ValueError):
        success_probability_sign(CUBE, UnknownQubit(0.0))
    with pytest.raises(ValueError):
        success_probability_sign(CUBE, UnknownQubit(math.pi))
