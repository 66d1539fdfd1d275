import csv
import dataclasses
import hashlib
import io
import json
import math
import tracemalloc

import pytest

from qcobweb import cli
from qcobweb.cli import main
from qcobweb.linalg import is_product_state
from qcobweb.protocol import BellOutcome, run_protocol
from qcobweb.states import UnknownQubit, roots_of_unity_zsa


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# --- validate ---------------------------------------------------------------


def test_validate_generator(capsys):
    code, out, _ = run_cli(capsys, "validate", "--gen", "cube")
    assert code == 0
    assert "3 parties" in out


def test_validate_roots_generator(capsys):
    code, out, _ = run_cli(capsys, "validate", "--gen", "roots:6")
    assert code == 0
    assert "6 parties" in out


def test_validate_zero_sum_violation(capsys, tmp_path):
    s = 1 / math.sqrt(2)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"coeffs": [[s, 0.0], [s, 0.0]]}))
    code, _, err = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 2
    assert "ZeroSumViolation" in err


def test_validate_malformed_file(capsys, tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"coeffs": [["abc", 0.0]]}')
    code, _, err = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 3
    path.write_text("not json at all {")
    code, _, _ = run_cli(capsys, "validate", "--coeffs", str(path))
    assert code == 3
    code, _, _ = run_cli(capsys, "validate", "--coeffs", str(tmp_path / "missing.json"))
    assert code == 3


def test_validate_unknown_generator(capsys):
    code, _, err = run_cli(capsys, "validate", "--gen", "bogus")
    assert code == 2
    assert "unknown generator" in err


# --- run ---------------------------------------------------------------------


def test_run_deterministic(capsys):
    argv = ["run", "--gen", "cube", "--theta", "1.2", "--phi", "0.4", "--trials", "25", "--seed", "9"]
    code1, out1, _ = run_cli(capsys, *argv)
    code2, out2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_run_forced_outcome_product_flag(capsys):
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "0", "--outcome", "PsiMinus", "--trials", "3",
    )
    assert code == 0
    lines = out.strip().splitlines()
    rows = [json.loads(line) for line in lines[:-1]]
    assert all(row["outcome"] == "PsiMinus" for row in rows)
    assert all(row["product_state"] == 1 for row in rows)
    summary = json.loads(lines[-1])["summary"]
    assert summary["empirical_PsiMinus"] == 1.0


def test_run_theta_degrees(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--gen", "cube", "--theta-deg", "90", "--outcome", "PhiPlus"
    )
    assert code == 0
    row = json.loads(out.splitlines()[0])
    assert row["reference_bit"] == 1


def test_run_sampled_frequencies_within_three_sigma(capsys):
    trials = 10000
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "1.5707963267948966", "--phi", "0",
        "--trials", str(trials), "--seed", "7",
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    for label in ("PhiPlus", "PhiMinus", "PsiPlus", "PsiMinus"):
        p = summary[f"expected_{label}"]
        emp = summary[f"empirical_{label}"]
        sigma = math.sqrt(trials * p * (1 - p))
        assert abs(emp * trials - p * trials) <= 3 * sigma


def _parse_run_csv(text):
    lines = [line for line in text.splitlines() if not line.startswith("#")]
    summary_line = next(line for line in text.splitlines() if line.startswith("# summary: "))
    summary = json.loads(summary_line[len("# summary: "):])
    reader = csv.DictReader(io.StringIO("\n".join(lines)))
    return list(reader), summary


def test_run_csv_json_numeric_parity(capsys, tmp_path):
    argv = ["run", "--gen", "cube", "--theta", "0.9", "--phi", "1.1", "--trials", "8", "--seed", "3"]
    code, json_out, _ = run_cli(capsys, *argv)
    assert code == 0
    code, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
    assert code == 0

    json_lines = json_out.strip().splitlines()
    json_rows = [json.loads(line) for line in json_lines[:-1]]
    json_summary = json.loads(json_lines[-1])["summary"]
    csv_rows, csv_summary = _parse_run_csv(csv_out)

    assert json_summary == csv_summary
    assert len(json_rows) == len(csv_rows)
    for jrow, crow in zip(json_rows, csv_rows):
        assert int(crow["trial"]) == jrow["trial"]
        assert crow["outcome"] == jrow["outcome"]
        assert float(crow["probability"]) == jrow["probability"]
        assert float(crow["norm_constant"]) == jrow["norm_constant"]
        for i, (re, im) in enumerate(jrow["final_state"]):
            assert float(crow[f"amp{i}_re"]) == re
            assert float(crow[f"amp{i}_im"]) == im


def test_run_session_summary_and_messages(capsys, tmp_path):
    log = tmp_path / "messages.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "roots:4", "--theta", "1.0", "--trials", "2", "--seed", "5",
        "--session", "--messages", str(log),
    )
    assert code == 0
    summary = json.loads(out.strip().splitlines()[-1])["summary"]
    assert summary["cbits_total"] == 6
    assert summary["parties"] == 4
    assert summary["ebits_consumed"] == pytest.approx(0.8112781244591328, abs=1e-12)
    lines = log.read_text().strip().splitlines()
    assert len(lines) == 6  # 3 messages per trial, 2 trials
    assert all(set(json.loads(line)) == {"step", "from", "to", "payload"} for line in lines)


def test_run_output_file(capsys, tmp_path):
    target = tmp_path / "rows.jsonl"
    code, out, _ = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "0.3", "--trials", "2", "--output", str(target),
    )
    assert code == 0
    assert out == ""
    assert len(target.read_text().strip().splitlines()) == 3


def test_run_rejects_bad_trials(capsys):
    code, _, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.0", "--trials", "0")
    assert code == 2
    assert "trials" in err


@pytest.mark.parametrize("phi", ["nan", "inf", "-inf"])
def test_run_rejects_non_finite_phi(capsys, phi):
    code, out, err = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.0", f"--phi={phi}")
    assert code == 2
    assert out == ""
    assert "phi" in err


# SHA-256 of stdout and of the --messages file, recorded from the implementation
# that ran every trial through the protocol and buffered all rows (numpy 2.4.6,
# x86-64).  The branch-cached streaming path must reproduce them byte for byte.
GOLDEN_RUNS = [
    (
        ["--gen", "cube", "--theta", "1.2", "--phi", "0.4", "--trials", "40", "--seed", "9"],
        "2ab06fb8024a2ccb820bba9b57bd71443b294f9f74952b6e6afa29ce865a5b4d",
        None,
    ),
    (
        ["--gen", "roots:4", "--theta", "0.9", "--phi", "1.1", "--trials", "30", "--seed", "3", "--format", "csv"],
        "4d902138a912c31420e8691a97ebc11bfec1815645cdb798e9eebd5621cab707",
        None,
    ),
    (
        ["--gen", "roots:5", "--theta", "1.0", "--phi", "0.2", "--trials", "25", "--seed", "5", "--session"],
        "6714c5c8c2f03227d48b5ee3717492c2a84ef55bd8329cc77b404e079e03f2ae",
        "bf86af64ee0bc5581da901a16d179b81fbb3c702c89a7eac5b5e387aaa013dd0",
    ),
    (
        ["--gen", "roots:4", "--theta", "2.0", "--trials", "20", "--seed", "8", "--session", "--format", "csv"],
        "55a26267ecf85a4ebf04080e36ed453d0991e412610450654c01280d781f150e",
        "08fd4e2e101b152fa4f2fdbcb07c7bb68e3cbca285a957ad07315588b12f0d46",
    ),
    (
        ["--gen", "cube", "--theta", "0.7", "--outcome", "PhiMinus", "--trials", "5"],
        "119ffca5c9071c53ac7db4c9b332193c8c978a99ee5b60fc499d59b4fdecf9f8",
        None,
    ),
    (
        ["--gen", "roots:6", "--theta", "2.5", "--phi", "5.0", "--outcome", "PsiPlus", "--trials", "3",
         "--session", "--format", "csv"],
        "1a20bfbd29b3580fd4cb2628eee56bdfb05ca4e46477c104eb36b2df19a9752f",
        "102a908948c8af880454099eab91ab66ad2ee1305e23f63c93f4fe364ca7031d",
    ),
]


@pytest.mark.parametrize(
    "argv,stdout_digest,messages_digest",
    GOLDEN_RUNS,
    ids=["json", "csv", "session-json", "session-csv", "forced-json", "forced-session-csv"],
)
def test_run_golden_output(capsys, tmp_path, argv, stdout_digest, messages_digest):
    log = tmp_path / "messages.jsonl"
    extra = ["--messages", str(log)] if messages_digest else []
    code, out, err = run_cli(capsys, "run", *argv, *extra)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_digest
    if messages_digest:
        assert hashlib.sha256(log.read_bytes()).hexdigest() == messages_digest


def test_run_rows_match_per_trial_protocol(capsys):
    """Differential check of the branch cache against one sampled protocol run per trial."""
    q, z = UnknownQubit(0.8, 2.9), roots_of_unity_zsa(4)
    code, out, _ = run_cli(
        capsys, "run", "--gen", "roots:4", "--theta", "0.8", "--phi", "2.9", "--trials", "60", "--seed", "21"
    )
    assert code == 0
    lines = out.splitlines()[:-1]
    assert len(lines) == 60
    for trial, line in enumerate(lines):
        transcript = run_protocol(q, z, seed=[21, trial])
        row = {"trial": trial, **transcript.to_dict(),
               "product_state": int(is_product_state(transcript.final.vector))}
        assert line == json.dumps(row)


@pytest.mark.parametrize("name,extra", [("run_protocol", []), ("run_session", ["--session"])])
def test_run_builds_each_branch_once(capsys, monkeypatch, name, extra):
    calls = []
    real = getattr(cli, name)

    def counted(*args, **kwargs):
        calls.append(kwargs.get("outcome"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, name, counted)
    code, out, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", "--trials", "1000", "--seed", "4", *extra)
    assert code == 0
    assert len(out.splitlines()) == 1001
    assert len(calls) <= 4
    assert len(set(calls)) == len(calls)



def _built_outcomes(capsys, monkeypatch, *argv) -> list:
    calls = []
    real = cli.run_protocol

    def counted(*args, **kwargs):
        calls.append(kwargs.get("outcome"))
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "run_protocol", counted)
    code, _, _ = run_cli(capsys, "run", "--gen", "cube", "--theta", "1.3", *argv)
    assert code == 0
    return calls


def test_run_builds_every_branch_whatever_the_draws(capsys, monkeypatch):
    # seed 3 draws PhiPlus on all four trials; the call still builds all four branches
    calls = _built_outcomes(capsys, monkeypatch, "--trials", "4", "--seed", "3")
    assert calls[0] == BellOutcome.PHI_PLUS
    assert sorted(calls, key=lambda o: o.value) == list(BellOutcome)
    # below four trials a call builds only the branches it draws
    for trials in ("1", "3"):
        assert _built_outcomes(capsys, monkeypatch, "--trials", trials, "--seed", "3") == [BellOutcome.PHI_PLUS]


def test_run_never_builds_an_undrawable_branch(capsys, monkeypatch):
    real = cli.branch_probabilities

    def no_psi_minus(joint):
        return {**real(joint), BellOutcome.PSI_MINUS: 0.0}

    monkeypatch.setattr(cli, "branch_probabilities", no_psi_minus)
    calls = _built_outcomes(capsys, monkeypatch, "--trials", "40", "--seed", "3")
    assert sorted(calls, key=lambda o: o.value) == [BellOutcome.PHI_PLUS, BellOutcome.PHI_MINUS, BellOutcome.PSI_PLUS]


def _traced_peak(capsys, path, trials: int) -> int:
    tracemalloc.start()
    try:
        code = main(["run", "--gen", "roots:8", "--theta", "1.1", "--trials", str(trials), "--seed", "2",
                     "--output", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert capsys.readouterr().out == ""
    return peak


def test_run_memory_flat_in_trials(capsys, tmp_path):
    _traced_peak(capsys, tmp_path / "warm.jsonl", 20)  # imports and caches outside the measurement
    small = _traced_peak(capsys, tmp_path / "small.jsonl", 200)
    large = _traced_peak(capsys, tmp_path / "large.jsonl", 2000)
    assert len((tmp_path / "large.jsonl").read_text().splitlines()) == 2001
    assert large <= 1.5 * small


def test_run_unwritable_messages_writes_no_rows(capsys, tmp_path):
    code, out, err = run_cli(
        capsys, "run", "--gen", "cube", "--theta", "1.0", "--trials", "5", "--session",
        "--messages", str(tmp_path / "missing" / "log.jsonl"),
    )
    assert code == 3
    assert out == ""
    assert "input error" in err


def test_run_session_rejects_two_parties_as_session(capsys):
    code, out, err = run_cli(capsys, "run", "--gen", "epr", "--theta", "1.0", "--session")
    assert code == 2
    assert out == ""
    assert "a session needs at least three parties" in err


# --- measures ------------------------------------------------------------------


def test_measures_json_report(capsys):
    code, out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "1.5707963267948966")
    assert code == 0
    doc = json.loads(out)
    assert doc["ppt"]["max_abs_difference"] < 1e-10
    assert doc["entanglement_of_formation"]["abs_difference"] < 1e-10
    assert doc["splitting_entropy"]["party_1"]["closed_form"] == pytest.approx(0.918296, abs=1e-6)
    ref0 = doc["cobweb"]["reference_0"]
    assert ref0["max_abs_difference"] < 1e-10
    assert ref0["epsilon_4x_vs_determinant"] > 0.3
    assert doc["obstruction"]["abs_difference"] < 1e-11
    assert doc["recovery"]["odds"]["probability"] == pytest.approx(1 / 3, abs=1e-12)


def test_measures_csv_matches_json(capsys):
    code, json_out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "0.8")
    assert code == 0
    code, csv_out, _ = run_cli(capsys, "measures", "--gen", "cube", "--theta", "0.8", "--format", "csv")
    assert code == 0
    doc = json.loads(json_out)
    from qcobweb.cli import _flatten

    flat = dict(_flatten(doc))
    reader = csv.DictReader(io.StringIO(csv_out))
    csv_map = {row["key"]: row["value"] for row in reader}
    assert set(csv_map) == set(flat)
    for key, value in flat.items():
        if isinstance(value, float):
            assert float(csv_map[key]) == value


def test_measures_many_parties(capsys):
    code, out, _ = run_cli(capsys, "measures", "--gen", "roots:5")
    assert code == 0
    doc = json.loads(out)
    assert "ppt" not in doc
    assert len(doc["splitting_entropy"]) == 5


# --- scaling ----------------------------------------------------------------------


def test_scaling_cmd(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--max", "6")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0] == {"parties": 2, "ebits": 1.0}
    assert rows[1]["ebits"] == pytest.approx(0.9182958340544896, abs=1e-12)
    assert [r["parties"] for r in rows] == [2, 3, 4, 5, 6]


def test_scaling_csv(capsys):
    code, out, _ = run_cli(capsys, "scaling", "--max", "4", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert [int(r["parties"]) for r in rows] == [2, 3, 4]
    assert float(rows[2]["ebits"]) == pytest.approx(0.8112781244591328, abs=1e-12)


# --- claims ------------------------------------------------------------------------


def test_claims_text_report(capsys):
    code, out, _ = run_cli(capsys, "claims")
    assert code == 0
    assert "pass" in out and "flag" in out
    assert "output-marginal-determinant-4x" in out
    assert "recovery-probability-cube-roots" in out


def test_claims_expected_flags(capsys):
    code, out, _ = run_cli(capsys, "claims", "--format", "json")
    assert code == 0
    rows = {row["claim"]: row for row in map(json.loads, out.strip().splitlines())}
    expected_flags = {
        "output-marginal-determinant-4x",
        "recovery-probability-cube-roots",
        "obstruction-always-nonzero",
        "scaling-large-n-loose",
    }
    for claim, row in rows.items():
        if claim in expected_flags:
            assert row["status"] == "flag", claim
        else:
            assert row["status"] == "pass", claim


def test_claims_csv(capsys):
    code, out, _ = run_cli(capsys, "claims", "--format", "csv")
    assert code == 0
    rows = list(csv.DictReader(io.StringIO(out)))
    assert {"claim", "stated", "computed", "abs_diff", "status", "note"} == set(rows[0])
    by_claim = {row["claim"]: row for row in rows}
    assert float(by_claim["scaling-two-parties"]["computed"]) == 1.0


# SHA-256 of stdout, recorded from the implementation that built the claims row
# by row and wrote each CSV through its own writer (numpy 2.4.6, x86-64).
GOLDEN_REPORTS = [
    (["claims"], "b6d5ea957e4bca64ed7fdd66d48c66dd630d4d39de53b054d96f8d48932103c0"),
    (["claims", "--format", "json"], "967778f0bde0d0aed1d03c4b7760ca521a7f492f674a8fdd08e3f7a5bfbc1ee5"),
    (["claims", "--format", "csv"], "b4a0168aedf8cbe6001942bb0d0d498680552a02dd533090ab3b1bb8160358b0"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3"],
     "73252d987ae5b2f0fa34852b6f5144c3b7db70b7f3e7d2a28fde81a91c4556b2"),
    (["measures", "--gen", "cube", "--theta", "1.1", "--phi", "0.3", "--format", "csv"],
     "c5c582f42cc0ed5f241c3235f3508d396b7c974d2bb0b1596fe9e865c5e97d18"),
    (["scaling", "--max", "40"], "a3b9808e77986abc69f686e2160312627c9c03cde57aeac2db057e098e71cf17"),
    (["scaling", "--max", "40", "--format", "csv"],
     "73755f0a747d115d7e406d70fefc8bf39a985977e8d6fdbb74df258265a0301d"),
]


@pytest.mark.parametrize(
    "argv,digest",
    GOLDEN_REPORTS,
    ids=["claims-text", "claims-json", "claims-csv", "measures-json", "measures-csv", "scaling-json",
         "scaling-csv"],
)
def test_report_golden_output(capsys, argv, digest):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0
    assert err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_claims_sign_rule_counts_disagreements(capsys, monkeypatch):
    """With the simulated recovery probability flipped around 1/2, the sign rule must be flagged."""
    real = cli.cnot_disentangle

    def flipped(c):
        result = real(c)
        return dataclasses.replace(result, success_probability=1.0 - result.success_probability)

    monkeypatch.setattr(cli, "cnot_disentangle", flipped)
    code, out, _ = run_cli(capsys, "claims", "--format", "json")
    assert code == 0
    row = next(row for row in map(json.loads, out.splitlines()) if row["claim"] == "recovery-sign-rule")
    assert row["computed"] < 1.0
    assert row["status"] == "flag"


def test_run_messages_requires_session(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "run", "--gen", "cube", "--theta", "1.0", "--messages", str(tmp_path / "log.jsonl"),
    )
    assert code == 2
    assert "--session" in err
