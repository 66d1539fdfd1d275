"""Independent checks of qcobweb CLI output.

Every expected value here is computed from the workload's own inputs with
numpy alone; no qcobweb function is called.  Each check raises CheckFailure
on the first mismatch it finds.
"""
from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

PROB_TOL = 1e-10
STATE_TOL = 1e-10
MEASURE_TOL = 1e-9
# A sampled outcome count may stray this many binomial standard deviations (plus a few
# rows) from trials * Born probability; correct sampling essentially never does.
SAMPLING_SIGMAS = 6.0

# Bell outcome label -> (two-bit payload, reference bit of the output).
OUTCOMES = {"PhiPlus": (0, 1), "PhiMinus": (1, 1), "PsiPlus": (2, 0), "PsiMinus": (3, 0)}

_S = 1.0 / math.sqrt(2.0)
_BELL = {
    "PhiPlus": np.array([_S, 0, 0, _S], dtype=complex),
    "PhiMinus": np.array([_S, 0, 0, -_S], dtype=complex),
    "PsiPlus": np.array([0, _S, _S, 0], dtype=complex),
    "PsiMinus": np.array([0, _S, -_S, 0], dtype=complex),
}


class CheckFailure(Exception):
    """An output disagrees with the benchmark's own computation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailure(message)


def close(actual, wanted, tol: float, what: str) -> None:
    expect(abs(actual - wanted) <= tol, f"{what}: got {actual!r}, expected {wanted!r} (tol {tol:g})")


def h2(p: float) -> float:
    """Binary entropy in bits."""
    return float(sum(-x * math.log2(x) for x in (p, 1.0 - p) if x > 0.0))


def qubit_vector(theta: float, phi: float) -> np.ndarray:
    return np.array([math.cos(theta / 2.0), math.sin(theta / 2.0) * complex(math.cos(phi), math.sin(phi))])


def shared_vector(coeffs: np.ndarray) -> np.ndarray:
    """sum_k c_k |x_k>, with |x_k> the one-hot string that has its 1 at party k (big-endian)."""
    n = coeffs.size
    vec = np.zeros(2**n, dtype=complex)
    vec[1 << (n - np.arange(1, n + 1))] = coeffs
    return vec


class RunExpectation:
    """What every `run` row for one (coefficients, theta, phi) must show."""

    def __init__(self, coeffs, theta: float, phi: float):
        self.coeffs = np.asarray(coeffs, dtype=complex)
        self.n = self.coeffs.size
        self.theta = theta
        v = qubit_vector(theta, phi)
        joint = np.kron(v, shared_vector(self.coeffs)).reshape(4, -1)
        self.born = {label: float(np.linalg.norm(b.conj() @ joint) ** 2) for label, b in _BELL.items()}
        self.targets = {}
        self.norm_constants = {}
        n_out = self.n - 1
        bits = 1 << (n_out - np.arange(1, n_out + 1))
        for ref in (0, 1):
            base = (1 << n_out) - 1 if ref else 0
            raw = np.zeros(2**n_out, dtype=complex)
            # slot k-1 carries v, every other slot the reference bit r
            np.add.at(raw, base & ~bits, self.coeffs[1:] * v[0])
            np.add.at(raw, base | bits, self.coeffs[1:] * v[1])
            norm = float(np.linalg.norm(raw))
            self.targets[ref] = raw / norm
            self.norm_constants[ref] = 1.0 / norm

    def check_row(self, index: int, fields: dict, amps: np.ndarray) -> None:
        where = f"row {index}"
        expect(fields["trial"] == index, f"{where}: trial field {fields['trial']!r}")
        label = fields["outcome"]
        expect(label in OUTCOMES, f"{where}: unknown outcome {label!r}")
        payload, ref = OUTCOMES[label]
        expect(fields["payload"] == payload, f"{where}: payload {fields['payload']!r} for {label}")
        expect(fields["reference_bit"] == ref, f"{where}: reference bit {fields['reference_bit']!r} for {label}")
        close(fields["probability"], self.born[label], PROB_TOL, f"{where}: Born probability of {label}")
        expect(fields["cbits_sent"] == 2, f"{where}: cbits_sent {fields['cbits_sent']!r}")
        expect(fields["parties_notified"] == self.n - 1, f"{where}: parties_notified {fields['parties_notified']!r}")
        close(fields["norm_constant"], self.norm_constants[ref], 1e-10 * self.norm_constants[ref],
              f"{where}: norm constant")
        if 0.0 < self.theta < math.pi:
            expect(fields["product_state"] == 0, f"{where}: output flagged as a product state")
        expect(amps.size == 2 ** (self.n - 1), f"{where}: {amps.size} amplitudes")
        close(float(np.linalg.norm(amps)), 1.0, STATE_TOL, f"{where}: final-state norm")
        overlap = abs(np.vdot(self.targets[ref], amps))
        close(overlap, 1.0, STATE_TOL, f"{where}: |<target|final_state>|")

    def check_summary(self, summary: dict, outcomes: list[str], trials: int, seed: int) -> None:
        expect(summary["trials"] == trials and summary["seed"] == seed, f"summary header {summary!r}")
        expect(len(outcomes) == trials, f"{len(outcomes)} rows for {trials} trials")
        for label in OUTCOMES:
            count = outcomes.count(label)
            expect(summary[f"empirical_{label}"] == count / trials, f"summary empirical_{label}")
            p = self.born[label]
            close(summary[f"expected_{label}"], p, PROB_TOL, f"summary expected_{label}")
            # a sampler that weights the wrong labels, or always takes one branch, is caught here
            slack = SAMPLING_SIGMAS * math.sqrt(trials * p * (1.0 - p)) + 3.0
            expect(abs(count - trials * p) <= slack,
                   f"{count} {label} rows in {trials} trials; the Born probability gives {trials * p:.1f} +- {slack:.1f}")


def check_exit(rc, wanted: int, stdout: str, stderr: str) -> None:
    expect(rc == wanted, f"exit code {rc!r}, expected {wanted}")
    if wanted != 0:
        expect(stdout == "", "an error exit wrote to stdout")
        expect(stderr.endswith("\n") and stderr.count("\n") == 1, f"error message {stderr!r}")


def check_run_json(stdout: str, exp: RunExpectation, trials: int, seed: int) -> None:
    lines = stdout.splitlines()
    expect(len(lines) == trials + 1, f"{len(lines)} lines for {trials} trials")
    outcomes = []
    for index, line in enumerate(lines[:-1]):
        row = json.loads(line)
        amps = np.array(row.pop("final_state"), dtype=float)
        exp.check_row(index, row, amps[:, 0] + 1j * amps[:, 1])
        outcomes.append(row["outcome"])
    exp.check_summary(json.loads(lines[-1])["summary"], outcomes, trials, seed)


def _csv_cell(name: str, cell: str):
    return cell if name == "outcome" else json.loads(cell)


def check_run_csv(stdout: str, messages: str, exp: RunExpectation, trials: int, seed: int) -> None:
    """A `run --session --messages FILE --format csv` call: rows, message log and ledger."""
    body, sep, tail = stdout.rpartition("# summary: ")
    expect(sep != "" and tail.endswith("\n"), "missing summary line")
    reader = csv.reader(io.StringIO(body))
    header = next(reader)
    first_amp = header.index("amp0_re")
    names = header[:first_amp]
    outcomes = []
    for index, cells in enumerate(reader):
        fields = {name: _csv_cell(name, cell) for name, cell in zip(names, cells)}
        amps = np.array(cells[first_amp:], dtype=float)
        exp.check_row(index, fields, amps[0::2] + 1j * amps[1::2])
        outcomes.append(fields["outcome"])
    summary = json.loads(tail)
    exp.check_summary(summary, outcomes, trials, seed)
    n = exp.n
    close(summary["ebits_consumed"], h2(float(abs(exp.coeffs[0]) ** 2)), 1e-12, "ledger ebits_consumed")
    expect(summary["cbits_total"] == 2 * (n - 1), f"ledger cbits_total {summary['cbits_total']!r}")
    expect(summary["parties"] == n, f"ledger parties {summary['parties']!r}")
    log = messages.splitlines()
    expect(len(log) == trials * (n - 1), f"{len(log)} messages for {trials} trials of {n} parties")
    for trial, label in enumerate(outcomes):
        payload = OUTCOMES[label][0]
        for i in range(n - 1):
            msg = json.loads(log[trial * (n - 1) + i])
            wanted = {"step": i + 1, "from": 1, "to": i + 2, "payload": payload}
            expect(msg == wanted, f"trial {trial} message {i}: {msg!r}, expected {wanted!r}")


def check_validate(stdout: str, coeffs: np.ndarray) -> None:
    lines = stdout.splitlines()
    expect(len(lines) == 4, f"validate printed {len(lines)} lines")
    expect(lines[0] == f"valid ZSA coefficients: {coeffs.size} parties", f"validate header {lines[0]!r}")
    wanted = [abs(coeffs.sum()), abs(float(np.sum(np.abs(coeffs) ** 2)) - 1.0), float(np.min(np.abs(coeffs)))]
    for line, value in zip(lines[1:], wanted):
        reported = float(line.rsplit("=", 1)[1])
        close(reported, value, 1e-14 + 1e-5 * value, f"validate {line.split('=')[0].strip()}")


def check_measures(stdout: str, coeffs: np.ndarray, theta: float, phi: float) -> None:
    report = json.loads(stdout)
    n = coeffs.size
    pops = np.abs(coeffs) ** 2
    expect(report["num_parties"] == n, f"num_parties {report['num_parties']!r}")
    expect(report["coefficients"] == [[c.real, c.imag] for c in coeffs], "coefficients differ from the input")
    close(report["theta"], theta, 0.0, "theta")
    close(report["phi"], phi % (2.0 * math.pi), 1e-15, "phi")
    for k in range(1, n + 1):
        entry = report["splitting_entropy"][f"party_{k}"]
        wanted = h2(float(pops[k - 1]))
        close(entry["closed_form"], wanted, 1e-12, f"party {k} splitting entropy")
        close(entry["oracle"], wanted, MEASURE_TOL, f"party {k} splitting-entropy oracle")
    if n != 3:
        expect("ppt" not in report, "tripartite sections in a report for N != 3")
        return
    a1, a2, a3 = (float(p) for p in pops)
    close(report["ppt"]["min_eigenvalue"], 0.5 * (a1 - math.sqrt(a1**2 + 4.0 * a2 * a3)), MEASURE_TOL,
          "PPT minimum eigenvalue")
    close(report["entanglement_of_formation"]["closed_form"],
          h2(0.5 * (1.0 + math.sqrt(max(0.0, 1.0 - 4.0 * a2 * a3)))), 1e-12, "pair entanglement of formation")
    alpha_sq = math.cos(theta / 2.0) ** 2
    # P = |c1|^2 N(alpha)^2 / 2 with 1/N(alpha)^2 = (1 - |c1|^2) + alpha^2 (2|c1|^2 - 1)
    recovery = 0.5 * a1 / ((1.0 - a1) + alpha_sq * (2.0 * a1 - 1.0))
    rec = report["recovery"]
    close(rec["closed_form_probability"], recovery, MEASURE_TOL, "recovery closed-form probability")
    close(rec["simulated_probability"], recovery, MEASURE_TOL, "recovery simulated probability")
    close(rec["success_fidelity"], 1.0, MEASURE_TOL, "recovery success fidelity")
    if 0.0 < theta < math.pi:
        close(rec["odds"]["probability"], recovery, MEASURE_TOL, "recovery odds")
        expect(rec["odds"]["better_than_half"] == (recovery > 0.5), "recovery sign rule")
