"""Command-line harness.

Subcommands:

* ``validate``  check an amplitude source against the ZSA invariants
* ``run``       protocol / session trials with seeded outcome sampling
* ``measures``  full measure report for one state (closed forms and oracles)
* ``scaling``   splitting-entanglement curve of the Nth-roots family
* ``claims``    reference numeric claims vs computed values, pass/flag status

Exit codes: 0 success, 2 domain-invalid input, 3 unreadable or malformed
input.  Output is plain text or machine-readable JSON/CSV; no color is ever
emitted, so NO_COLOR is honored trivially.
"""
from __future__ import annotations

import argparse
import contextlib
import csv
import dataclasses
import io
import json
import math
import sys
from collections import Counter

import numpy as np

from .disentangle import cnot_disentangle, obstruction, success_probability_sign
from .linalg import (
    PureState,
    binary_entropy,
    hermitian_eigenvalues,
    is_product_state,
    pure_marginal,
    state_fidelity,
    von_neumann_entropy,
)
from .measures import (
    cobweb_marginal_eigenvalues,
    cobweb_spectrum,
    concurrence,
    entanglement_of_formation,
    eof_from_concurrence,
    ppt_report,
    scaling_curve,
    splitting_entropy,
)
from .protocol import (
    DEGENERATE_PROBABILITY,
    BellOutcome,
    branch_probabilities,
    cobweb_state,
    draw_outcome,
    joint_state,
    normalization_constants,
    run_protocol,
)
from .session import (
    ResourceLedger,
    classical_only_baseline,
    messages_to_jsonl,
    run_session,
    session_joint_state,
)
from .states import (
    AmplitudeFileError,
    UnknownQubit,
    ZsaAmplitudes,
    ZsaValidationError,
    build_state,
    epr_zsa,
    load_amplitudes,
    random_zsa,
    reduced_pair,
    reduced_single,
    roots_of_unity_zsa,
    validate_zsa,
)

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_IO = 3

def _resolve_source(args) -> ZsaAmplitudes:
    if args.coeffs is not None:
        return load_amplitudes(args.coeffs)
    name = args.gen
    if name == "epr":
        return epr_zsa()
    if name == "cube":
        return roots_of_unity_zsa(3)
    if name.startswith("roots:"):
        try:
            n = int(name.split(":", 1)[1])
        except ValueError:
            raise ValueError(f"bad generator {name!r}; expected roots:N with integer N") from None
        return roots_of_unity_zsa(n)
    raise ValueError(f"unknown generator {name!r}; expected epr, cube, or roots:N")


def _qubit_from_args(args) -> UnknownQubit:
    theta = math.radians(args.theta_deg) if args.theta_deg is not None else args.theta
    return UnknownQubit(theta, args.phi)


def _emit(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _render_cell(value) -> str:
    if isinstance(value, str):
        return value
    return json.dumps(value)


def _csv_line(cells) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow(cells)
    return buf.getvalue()


def _flatten(value, prefix: str = ""):
    """Depth-first (key, scalar) pairs; lists get [i] suffixes."""
    if isinstance(value, dict):
        for key, sub in value.items():
            yield from _flatten(sub, f"{prefix}.{key}" if prefix else str(key))
    elif isinstance(value, (list, tuple)):
        for i, sub in enumerate(value):
            yield from _flatten(sub, f"{prefix}[{i}]")
    else:
        yield prefix, value


def _csv_table(header, rows) -> str:
    """A header line, then one line per row with every cell rendered by `_render_cell`."""
    return _csv_line(header) + "".join(_csv_line(map(_render_cell, row)) for row in rows)


# --- validate -------------------------------------------------------------


def cmd_validate(args) -> int:
    z = _resolve_source(args)
    total = complex(np.sum(z.coeffs))
    sq = float(np.vdot(z.coeffs, z.coeffs).real)
    lines = [
        f"valid ZSA coefficients: {z.num_parties} parties",
        f"|sum residual|  = {abs(total):.6e}",
        f"|norm - 1|      = {abs(sq - 1.0):.6e}",
        f"min |c_k|       = {float(np.min(np.abs(z.coeffs))):.6e}",
    ]
    _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# --- run ------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Branch:
    """What every trial that lands on one Bell branch writes."""

    header: str  # CSV header line; empty for JSON
    tail: str  # serialized row after the trial index, newline included
    messages: str  # the session's message log as JSON lines; empty without --session
    ledger: ResourceLedger | None


def _build_branch(args, z: ZsaAmplitudes, q: UnknownQubit, outcome: BellOutcome) -> _Branch:
    """Run one forced branch and serialize its row once for the whole call."""
    ledger, messages = None, ""
    if args.session:
        result = run_session(q, z, outcome=outcome)
        transcript, ledger, messages = result.transcript, result.ledger, messages_to_jsonl(result.messages)
    else:
        transcript = run_protocol(q, z, outcome=outcome)
    row = {**transcript.to_dict(), "product_state": int(is_product_state(transcript.final.vector))}
    if args.format != "csv":
        return _Branch("", ", " + json.dumps(row)[1:] + "\n", messages, ledger)
    amps = row.pop("final_state")
    header = ["trial", *row] + [f"amp{i}_{part}" for i in range(len(amps)) for part in ("re", "im")]
    cells = [_render_cell(value) for value in row.values()]
    for re, im in amps:
        cells += [_render_cell(re), _render_cell(im)]
    return _Branch(_csv_line(header), "," + _csv_line(cells), messages, ledger)


def cmd_run(args) -> int:
    """Stream one row per trial; each Bell branch is run and serialized once per call.

    Every trial shares (q, z), so its row is one of four fixed by its Bell
    outcome.  A trial costs one seeded draw from the branch probabilities and
    one write.  The first trial builds only the branch it lands on, so a
    one-trial call computes one branch.  A sampled call of at least four
    trials then builds every other branch whose probability is high enough
    not to raise `DegenerateBranch`, so its cost does not depend on which
    outcomes the draws hit; that is at most one build per trial.
    """
    if args.trials < 1:
        raise ValueError(f"trials must be at least 1, got {args.trials}")
    if args.messages and not args.session:
        raise ValueError("--messages requires --session")
    z = _resolve_source(args)
    q = _qubit_from_args(args)
    probs = branch_probabilities((session_joint_state if args.session else joint_state)(q, z))
    forced = BellOutcome.from_label(args.outcome) if args.outcome else None
    lead = '{"trial": ' if args.format != "csv" else ""
    branches: dict[BellOutcome, _Branch] = {}
    counts: Counter = Counter()
    with contextlib.ExitStack() as stack:
        log = stack.enter_context(open(args.messages, "w", encoding="utf-8")) if args.messages else None
        out = stack.enter_context(open(args.output, "w", encoding="utf-8")) if args.output else sys.stdout
        for trial in range(args.trials):
            outcome = forced if forced is not None else draw_outcome(probs, [args.seed, trial])
            branch = branches.get(outcome)
            if branch is None:
                branch = branches[outcome] = _build_branch(args, z, q, outcome)
            if trial == 0:
                out.write(branch.header)
            out.write(f"{lead}{trial}{branch.tail}")
            if log is not None:
                log.write(branch.messages + "\n")
            counts[outcome] += 1
            if trial == 0 and forced is None and args.trials >= len(BellOutcome):
                for other in BellOutcome:
                    if other not in branches and probs[other] >= DEGENERATE_PROBABILITY:
                        branches[other] = _build_branch(args, z, q, other)

        summary = {"trials": args.trials, "seed": args.seed}
        for outcome in BellOutcome:
            summary[f"empirical_{outcome.label}"] = counts[outcome] / args.trials
            summary[f"expected_{outcome.label}"] = probs[outcome]
        if branch.ledger is not None:  # a session's ledger is the same on every branch
            summary.update(dataclasses.asdict(branch.ledger))
        if args.format == "csv":
            out.write(f"# summary: {json.dumps(summary)}\n")
        else:
            out.write(json.dumps({"summary": summary}) + "\n")
    return EXIT_OK


# --- measures ---------------------------------------------------------------


def _measures_report(z: ZsaAmplitudes, q: UnknownQubit) -> dict:
    psi = build_state(z)
    report: dict = {
        "num_parties": z.num_parties,
        "coefficients": [[c.real, c.imag] for c in z.coeffs],
        "theta": q.theta,
        "phi": q.phi,
    }
    entries = {}
    for k in range(1, z.num_parties + 1):
        closed = splitting_entropy(z, k)
        oracle = von_neumann_entropy(pure_marginal(psi, [k]))
        entries[f"party_{k}"] = {
            "closed_form": closed,
            "oracle": oracle,
            "abs_difference": abs(closed - oracle),
        }
    report["splitting_entropy"] = entries
    if z.num_parties != 3:
        return report

    report["ppt"] = ppt_report(z).to_dict()
    closed_eof = entanglement_of_formation(z)
    route_eof = eof_from_concurrence(concurrence(reduced_pair(z)))
    report["entanglement_of_formation"] = {
        "closed_form": closed_eof,
        "concurrence_route": route_eof,
        "abs_difference": abs(closed_eof - route_eof),
    }

    cobwebs = {}
    for ref in (0, 1):
        cw = cobweb_state(q, z, ref)
        spectrum = cobweb_spectrum(cw)
        oracle_eigs = [cobweb_marginal_eigenvalues(cw, pos) for pos in (1, 2)]
        closed_sorted = np.array([spectrum.eta_minus, spectrum.eta_plus])
        deviation = max(float(np.max(np.abs(closed_sorted - eigs))) for eigs in oracle_eigs)
        det_oracle = float(np.prod(oracle_eigs[0]))
        cobwebs[f"reference_{ref}"] = {
            **spectrum.to_dict(),
            "oracle_eigenvalues": [float(v) for v in oracle_eigs[0]],
            "max_abs_difference": deviation,
            "determinant_oracle": det_oracle,
            "epsilon_4x_variant": 4.0 * spectrum.epsilon,
            "epsilon_4x_vs_determinant": abs(4.0 * spectrum.epsilon - det_oracle),
        }
    report["cobweb"] = cobwebs
    report["obstruction"] = obstruction(q, z).to_dict()
    recovery = cnot_disentangle(cobweb_state(q, z, 0)).to_dict()
    if 0.0 < q.theta < math.pi:
        recovery["odds"] = success_probability_sign(z, q).to_dict()
    report["recovery"] = recovery
    return report


def cmd_measures(args) -> int:
    z = _resolve_source(args)
    q = _qubit_from_args(args)
    report = _measures_report(z, q)
    if args.format == "csv":
        _emit(_csv_table(["key", "value"], _flatten(report)), args.output)
    else:
        _emit(json.dumps(report, indent=2) + "\n", args.output)
    return EXIT_OK


# --- scaling ----------------------------------------------------------------


def cmd_scaling(args) -> int:
    curve = scaling_curve(args.max)
    if args.format == "csv":
        _emit(_csv_table(["parties", "ebits"], curve), args.output)
    else:
        lines = [json.dumps({"parties": n, "ebits": e}) for n, e in curve]
        _emit("\n".join(lines) + "\n", args.output)
    return EXIT_OK


# --- claims -----------------------------------------------------------------


CLAIM_FIELDS = ["claim", "stated", "computed", "abs_diff", "status", "note"]


def _claims_rows() -> list[dict]:
    """Each claim as (claim, stated, computed, tol, note); a row passes when |computed - stated| <= tol."""
    s = 1.0 / math.sqrt(2.0)
    singlet = PureState(2, np.array([0.0, -s, s, 0.0], dtype=complex))
    cube = roots_of_unity_zsa(3)
    q_eq = UnknownQubit(math.pi / 2.0)
    cw = cobweb_state(q_eq, cube, 0)
    epsilon = cobweb_spectrum(cw).epsilon
    det_oracle = float(np.prod(cobweb_marginal_eigenvalues(cw, 1)))
    # c2 = a, c3 = ia with a = 1/2: every amplitude nonzero, yet Re(c2 c3*) = 0
    zero_cross = validate_zsa([-0.5 * (1.0 + 1.0j), 0.5, 0.5j])
    nulled = obstruction(UnknownQubit(math.pi / 2.0, 0.7), zero_cross)
    curve = dict(scaling_curve(4))
    big_n = 1024
    e_big = binary_entropy(1.0 / big_n)
    baseline = classical_only_baseline(UnknownQubit(1.2, 0.4), seed=11)
    rng = np.random.default_rng(20260809)
    sign_draws, sign_agreements = 200, 0
    for _ in range(sign_draws):
        z = random_zsa(3, rng)
        q = UnknownQubit(math.acos(1.0 - 2.0 * rng.uniform(0.05, 0.95)), 2.0 * math.pi * rng.random())
        simulated = cnot_disentangle(cobweb_state(q, z, 0)).success_probability
        sign_agreements += (simulated > 0.5) == ((np.conj(z.coeffs[1]) * z.coeffs[2]).real > 0.0)
    table = [
        ("epr-reduction-singlet-fidelity", 1.0, state_fidelity(build_state(epr_zsa()), singlet), 1e-12,
         "the two-party coefficients build the singlet exactly"),
        ("cube-roots-marginal-population", 2.0 / 3.0, reduced_single(cube, 1).entries[0, 0].real, 1e-12,
         "every single-party marginal is diag(2/3, 1/3)"),
        ("cube-roots-splitting-entropy", 0.9, splitting_entropy(cube, 1), 0.05,
         "rounded reference value; exact closed form is 0.918296"),
        ("pair-transpose-min-eigenvalue", (1.0 - math.sqrt(5.0)) / 6.0,
         hermitian_eigenvalues(ppt_report(cube).matrix)[0], 1e-10,
         "negative eigenvalue certifies the inseparable pair marginal"),
        ("pair-eof-two-routes", entanglement_of_formation(cube),
         eof_from_concurrence(concurrence(reduced_pair(cube))), 1e-10,
         "closed form vs concurrence route, about 0.550 bits"),
        ("norm-constant-pole-identity", abs(cube.coeffs[0]) ** 2,
         1.0 / normalization_constants(UnknownQubit(0.0), cube)[0] ** 2, 1e-12,
         "1/N(alpha)^2 = |c1|^2 at theta = 0"),
        ("norm-constant-cube-equator", 0.5, 1.0 / normalization_constants(q_eq, cube)[0] ** 2, 1e-12, ""),
        ("output-marginal-determinant", epsilon, det_oracle, 1e-10,
         "epsilon equals the determinant of either single-qubit marginal"),
        ("output-marginal-determinant-4x", 4.0 * epsilon, det_oracle, 1e-10,
         "variant with an extra factor of 4 fails the determinant oracle"),
        ("recovery-probability-cube-roots", 0.5, cnot_disentangle(cw).closed_form_probability, 1e-12,
         "claimed better than chance; cube roots give P = 1/3 since Re(c2* c3) = -1/6 < 0"),
        ("recovery-sign-rule", 1.0, sign_agreements / sign_draws, 0.0,
         "P > 1/2 exactly when Re(c2* c3) > 0 (200 seeded random states)"),
        ("obstruction-always-nonzero", 1.0, 1.0 if nulled.value > 0.0 else 0.0, 0.0,
         f"claimed impossible to null with nonzero amplitudes; c2 = a, c3 = ia gives "
         f"value {nulled.value!r} (oracle {nulled.oracle_value:.3e})"),
        ("scaling-two-parties", 1.0, curve[2], 1e-12, ""),
        ("scaling-three-parties", 0.9183, curve[3], 1e-4, ""),
        ("scaling-four-parties", 0.8113, curve[4], 1e-4, ""),
        ("scaling-large-n-loose", 1.0 / big_n, e_big, 1e-4,
         "claimed ~1/N decay; the curve actually decays like (log2 N + log2 e)/N"),
        ("scaling-large-n-refined", 1.0, big_n * e_big / (math.log2(big_n) + math.log2(math.e)), 1e-3,
         "refined asymptotic ratio at N = 1024"),
        ("classical-control-entanglement", 0.0,
         max(baseline.max_coherence, baseline.entanglement_of_formation), 1e-12,
         "diagonal correlated shared state yields zero output entanglement"),
        ("classical-cost-per-recipient", 2.0,
         run_protocol(q_eq, cube, outcome=BellOutcome.PSI_MINUS).cbits_sent, 0.0,
         "two classical bits to each remote party"),
    ]
    return [
        {"claim": claim, "stated": float(stated), "computed": float(computed),
         "abs_diff": float(diff := abs(computed - stated)), "status": "pass" if diff <= tol else "flag",
         "note": note}
        for claim, stated, computed, tol, note in table
    ]


def _claims_text(rows) -> str:
    headers = ["claim", "stated", "computed", "abs_diff", "status"]
    table = [
        [
            row["claim"],
            f"{row['stated']:.6g}",
            f"{row['computed']:.6g}",
            f"{row['abs_diff']:.3g}",
            row["status"],
        ]
        for row in rows
    ]
    widths = [max(len(h), *(len(line[i]) for line in table)) for i, h in enumerate(headers)]
    out = ["  ".join(h.ljust(w) for h, w in zip(headers, widths))]
    out.append("  ".join("-" * w for w in widths))
    for line, row in zip(table, rows):
        out.append("  ".join(cell.ljust(w) for cell, w in zip(line, widths)))
        if row["note"]:
            out.append(f"    note: {row['note']}")
    flags = sum(row["status"] == "flag" for row in rows)
    out.append(f"{len(rows)} claims checked, {len(rows) - flags} pass, {flags} flagged")
    return "\n".join(out) + "\n"


def cmd_claims(args) -> int:
    rows = _claims_rows()
    if args.format == "json":
        _emit("\n".join(json.dumps(row) for row in rows) + "\n", args.output)
    elif args.format == "csv":
        _emit(_csv_table(CLAIM_FIELDS, (row.values() for row in rows)), args.output)
    else:
        _emit(_claims_text(rows), args.output)
    return EXIT_OK


# --- parser -----------------------------------------------------------------


def _add_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--gen", help="named generator: epr, cube, or roots:N")
    group.add_argument("--coeffs", help='path to a JSON document {"coeffs": [[re, im], ...]}')


def _add_qubit(parser: argparse.ArgumentParser, theta_required: bool) -> None:
    group = parser.add_mutually_exclusive_group(required=theta_required)
    group.add_argument("--theta", type=float, default=None if theta_required else math.pi / 2.0,
                       help="polar angle in radians")
    group.add_argument("--theta-deg", type=float, default=None, help="polar angle in degrees")
    parser.add_argument("--phi", type=float, default=0.0, help="azimuthal angle in radians")


def _add_output(parser: argparse.ArgumentParser, default_format: str = "json") -> None:
    formats = ["json", "csv"] if default_format == "json" else ["text", "json", "csv"]
    parser.add_argument("--format", choices=formats, default=default_format)
    parser.add_argument("--output", default=None, help="write to a file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qcobweb", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check amplitudes against the ZSA invariants")
    _add_source(p)
    _add_output(p, default_format="text")
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("run", help="run protocol or session trials")
    _add_source(p)
    _add_qubit(p, theta_required=True)
    p.add_argument("--trials", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="64-bit master seed; trial t uses (seed, t)")
    p.add_argument("--outcome", choices=[o.label for o in BellOutcome], default=None,
                   help="force a Bell branch")
    p.add_argument("--session", action="store_true", help="run the full message-passing session")
    p.add_argument("--messages", default=None, help="with --session, write message logs (JSON lines)")
    _add_output(p)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("measures", help="closed-form measures with their oracles")
    _add_source(p)
    _add_qubit(p, theta_required=False)
    _add_output(p)
    p.set_defaults(func=cmd_measures)

    p = sub.add_parser("scaling", help="splitting entanglement of the Nth-roots family")
    p.add_argument("--max", type=int, default=64, help="largest party count")
    _add_output(p)
    p.set_defaults(func=cmd_scaling)

    p = sub.add_parser("claims", help="reference numeric claims vs computed values")
    _add_output(p, default_format="text")
    p.set_defaults(func=cmd_claims)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ZsaValidationError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except (AmplitudeFileError, json.JSONDecodeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_IO
    except ValueError as exc:
        print(f"invalid request: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
