"""Self-test of the benchmark's output checks.

    python3 bench/selftest.py

Each check must accept the program's real output and reject the same output
with one deliberate corruption: an amplitude's sign flipped, a wrong
reference bit, a dropped message, a wrong measure, a wrong exit code, a
sampler that picks outcomes with the wrong weights, or an output that differs
on a repeated call.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import os
import sys
import tempfile
import unittest

import numpy as np

import checks
import run
from workloads import Call, Output, _random_coeffs, _write_coeffs

cli = run.import_program()


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def rewrite_row(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    row = json.loads(lines[index])
    edit(row)
    lines[index] = json.dumps(row)
    return "\n".join(lines) + "\n"


def flip_largest_amplitude(amps: list) -> None:
    i = max(range(len(amps)), key=lambda k: math.hypot(*amps[k]))
    amps[i] = [-amps[i][0], -amps[i][1]]


class RunJsonChecks(unittest.TestCase):
    theta, phi, trials, seed = 1.1, 0.4, 12, 5

    def setUp(self):
        coeffs = np.exp(2j * np.pi * np.arange(1, 4) / 3) / math.sqrt(3)
        self.exp = checks.RunExpectation(coeffs, self.theta, self.phi)
        argv = ["run", "--gen", "cube", "--theta", repr(self.theta), "--phi", repr(self.phi),
                "--trials", str(self.trials), "--seed", str(self.seed)]
        rc, self.text = call_cli(argv)
        self.assertEqual(rc, 0)

    def check(self, text):
        checks.check_run_json(text, self.exp, self.trials, self.seed)

    def test_accepts_real_output(self):
        self.check(self.text)

    def test_rejects_flipped_amplitude_sign(self):
        bad = rewrite_row(self.text, 3, lambda row: flip_largest_amplitude(row["final_state"]))
        self.assertRaises(checks.CheckFailure, self.check, bad)

    def test_rejects_wrong_reference_bit(self):
        bad = rewrite_row(self.text, 0, lambda row: row.update(reference_bit=1 - row["reference_bit"]))
        self.assertRaises(checks.CheckFailure, self.check, bad)

    def test_rejects_wrong_probability(self):
        bad = rewrite_row(self.text, 0, lambda row: row.update(probability=row["probability"] * (1 + 1e-6)))
        self.assertRaises(checks.CheckFailure, self.check, bad)

    def test_rejects_product_flag(self):
        bad = rewrite_row(self.text, 1, lambda row: row.update(product_state=1))
        self.assertRaises(checks.CheckFailure, self.check, bad)

    def test_rejects_wrong_empirical_frequency(self):
        def edit(doc):
            doc["summary"]["empirical_PsiMinus"] += 1.0 / self.trials
        self.assertRaises(checks.CheckFailure, self.check, rewrite_row(self.text, -1, edit))


class SamplingCheck(unittest.TestCase):
    """Rows that are each right but sampled with the wrong weights must be rejected."""

    theta, phi, trials, seed = 0.3, 1.2, 1500, 11

    def setUp(self):
        coeffs = np.exp(2j * np.pi * np.arange(1, 4) / 3) / math.sqrt(3)
        self.exp = checks.RunExpectation(coeffs, self.theta, self.phi)
        rc, text = call_cli(["run", "--gen", "cube", "--theta", repr(self.theta), "--phi", repr(self.phi),
                             "--trials", str(self.trials), "--seed", str(self.seed)])
        self.assertEqual(rc, 0)
        lines = text.splitlines()
        self.rows = [json.loads(line) for line in lines[:-1]]
        self.summary = json.loads(lines[-1])

    def resample(self, pick) -> str:
        """The output with row i replaced by a real row of outcome pick(i, row) and the summary recounted."""
        template = {row["outcome"]: row for row in self.rows}
        self.assertEqual(len(template), 4)
        rows = [dict(template[pick(i, row)], trial=i) for i, row in enumerate(self.rows)]
        summary = json.loads(json.dumps(self.summary))
        for label in checks.OUTCOMES:
            summary["summary"][f"empirical_{label}"] = sum(r["outcome"] == label for r in rows) / self.trials
        return "\n".join(json.dumps(r) for r in rows + [summary]) + "\n"

    def check(self, text):
        checks.check_run_json(text, self.exp, self.trials, self.seed)

    def test_accepts_real_output(self):
        self.check(self.resample(lambda i, row: row["outcome"]))

    def test_rejects_swapped_weights(self):
        swap = {"PhiPlus": "PsiPlus", "PsiPlus": "PhiPlus", "PhiMinus": "PsiMinus", "PsiMinus": "PhiMinus"}
        bad = self.resample(lambda i, row: swap[row["outcome"]])
        self.assertRaisesRegex(checks.CheckFailure, "Born probability gives", self.check, bad)

    def test_rejects_always_the_likeliest_branch(self):
        likeliest = max(self.exp.born, key=self.exp.born.get)
        bad = self.resample(lambda i, row: likeliest)
        self.assertRaisesRegex(checks.CheckFailure, "Born probability gives", self.check, bad)


class SessionCsvChecks(unittest.TestCase):
    n, theta, phi, trials, seed = 5, 0.9, 2.0, 6, 3

    def setUp(self):
        coeffs = np.exp(2j * np.pi * np.arange(1, self.n + 1) / self.n) / math.sqrt(self.n)
        self.exp = checks.RunExpectation(coeffs, self.theta, self.phi)
        with tempfile.TemporaryDirectory(dir=run.BENCH_DIR) as tmp:
            path = os.path.join(tmp, "messages.jsonl")
            rc, self.text = call_cli([
                "run", "--gen", f"roots:{self.n}", "--theta", repr(self.theta), "--phi", repr(self.phi),
                "--trials", str(self.trials), "--seed", str(self.seed),
                "--session", "--messages", path, "--format", "csv"])
            with open(path, encoding="utf-8") as fh:
                self.messages = fh.read()
        self.assertEqual(rc, 0)

    def check(self, text, messages):
        checks.check_run_csv(text, messages, self.exp, self.trials, self.seed)

    def test_accepts_real_output(self):
        self.check(self.text, self.messages)

    def test_rejects_dropped_message(self):
        lines = self.messages.splitlines()
        del lines[5]
        self.assertRaises(checks.CheckFailure, self.check, self.text, "\n".join(lines) + "\n")

    def test_rejects_wrong_message_payload(self):
        lines = self.messages.splitlines()
        msg = json.loads(lines[2])
        msg["payload"] = (msg["payload"] + 1) % 4
        lines[2] = json.dumps(msg)
        self.assertRaises(checks.CheckFailure, self.check, self.text, "\n".join(lines) + "\n")

    def test_rejects_flipped_amplitude_sign(self):
        lines = self.text.splitlines()
        header = lines[0].split(",")
        cells = lines[2].split(",")
        first = header.index("amp0_re")
        amps = np.array(cells[first:], dtype=float)
        i = 2 * int(np.argmax(amps[0::2] ** 2 + amps[1::2] ** 2))
        cells[first + i] = repr(-float(cells[first + i]))
        cells[first + i + 1] = repr(-float(cells[first + i + 1]))
        lines[2] = ",".join(cells)
        self.assertRaises(checks.CheckFailure, self.check, "\n".join(lines) + "\n", self.messages)

    def test_rejects_wrong_ledger(self):
        bad = self.text.replace('"cbits_total": 8', '"cbits_total": 10')
        self.assertNotEqual(bad, self.text)
        self.assertRaises(checks.CheckFailure, self.check, bad, self.messages)


class SurveyChecks(unittest.TestCase):
    theta, phi = 1.3, 5.0

    def setUp(self):
        self.coeffs = _random_coeffs(3, np.random.default_rng(7))
        self.tmp = tempfile.TemporaryDirectory(dir=run.BENCH_DIR)
        self.path = os.path.join(self.tmp.name, "state.json")
        _write_coeffs(self.path, self.coeffs)

    def tearDown(self):
        self.tmp.cleanup()

    def measures(self) -> dict:
        rc, text = call_cli(["measures", "--coeffs", self.path, "--theta", repr(self.theta), "--phi", repr(self.phi)])
        self.assertEqual(rc, 0)
        return json.loads(text)

    def check_measures(self, report):
        checks.check_measures(json.dumps(report), self.coeffs, self.theta, self.phi)

    def test_measures_accepts_real_output(self):
        self.check_measures(self.measures())

    def test_measures_rejects_wrong_entropy(self):
        report = self.measures()
        report["splitting_entropy"]["party_2"]["oracle"] += 1e-6
        self.assertRaises(checks.CheckFailure, self.check_measures, report)

    def test_measures_rejects_wrong_ppt_eigenvalue(self):
        report = self.measures()
        report["ppt"]["min_eigenvalue"] *= 0.99
        self.assertRaises(checks.CheckFailure, self.check_measures, report)

    def test_measures_rejects_wrong_recovery(self):
        report = self.measures()
        report["recovery"]["simulated_probability"] += 1e-6
        self.assertRaises(checks.CheckFailure, self.check_measures, report)

    def test_validate(self):
        rc, text = call_cli(["validate", "--coeffs", self.path])
        self.assertEqual(rc, 0)
        checks.check_validate(text, self.coeffs)
        bad = text.replace("3 parties", "4 parties")
        self.assertRaises(checks.CheckFailure, checks.check_validate, bad, self.coeffs)

    def test_exit_code(self):
        _write_coeffs(self.path, self.coeffs, malformed=True)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            rc, text = call_cli(["validate", "--coeffs", self.path])
        checks.check_exit(rc, 3, text, err.getvalue())
        self.assertRaises(checks.CheckFailure, checks.check_exit, rc, 2, text, err.getvalue())
        self.assertRaises(checks.CheckFailure, checks.check_exit, 0, 3, text, err.getvalue())


class BellProjectionCount(unittest.TestCase):
    """The tracer counts Bell projections from the arguments of linalg.project, whoever calls it."""

    def test_counts_by_arguments(self):
        from layertrace import Tracer

        linalg = sys.modules["qcobweb.linalg"]
        state = linalg.PureState(3, np.eye(8)[5])
        s = 1.0 / math.sqrt(2.0)
        tracer = Tracer()
        tracer.install()
        try:
            tracer.active = True
            linalg.project(state, (1, 2), np.array([0, s, -s, 0]))  # PsiMinus
            linalg.project(state, [1, 2], target=np.array([s, 0, 0, s]))  # PhiPlus
            linalg.project(state, (2, 3), np.array([s, 0, 0, s]))  # a Bell vector on other qubits
            linalg.project(state, (1, 2), np.array([0.6, 0, 0, 0.8]))  # not a Bell vector
            linalg.project(state, [1], np.array([s, s]))
            tracer.active = False
            tracer.collect()
        finally:
            tracer.uninstall()
        self.assertEqual(tracer.calls["linalg.project"], 5)
        self.assertEqual(tracer.bell_projections, 2)
        ratio = tracer.metrics(1, 1, 0, 0.0)["protocol.projection_use_ratio"]["value"]
        self.assertEqual(ratio, 0.5)


class RepeatCheck(unittest.TestCase):
    def test_rejects_changed_output_on_repeat(self):
        call = Call(["validate", "--gen", "cube"], 1, 0, lambda out: None)
        digests: dict = {}
        self.assertTrue(run.check_call(call, Output(0, "a\n", "", ""), digests))
        self.assertTrue(run.check_call(call, Output(0, "a\n", "", ""), digests))
        with contextlib.redirect_stderr(io.StringIO()):
            self.assertFalse(run.check_call(call, Output(0, "b\n", "", ""), digests))


if __name__ == "__main__":
    unittest.main(argv=sys.argv[:1] + sys.argv[1:])
