"""qcobweb benchmark: run one workload in this process and print one JSON result line.

    python3 bench/run.py --workload cube-trials --seed 1 --seconds 25 --trace 0

The workload calls `qcobweb.cli.main(argv)` in-process as a closed loop: one
call at a time, no extra threads, BLAS pinned to one thread.  Stdout and
stderr of each call go to a sink that records the time of the first
complete line.  Every call's output is checked outside the timed region.

Times are reported at machine speed 1.0: a fixed calibration kernel that
does not touch qcobweb runs before every batch of calls (and before every
set-up probe), and each timing is multiplied by CALIBRATION_REFERENCE_S
over the kernel's time measured around it.  On a shared machine whose speed
drifts by a third within minutes, this keeps two runs of the same code
comparable; the unscaled figures go to the result file as well.

--trace 0 reports the end-to-end metrics; --trace 1 installs the layer
wrappers of layertrace.py and reports the per-layer metrics instead.  A fuller
record of each run goes to bench/results/ (or --out).
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
import tracemalloc  # noqa: E402

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
SETUP_PROBES = 7
# calibration_kernel() time, in seconds, that counts as machine speed 1.0
CALIBRATION_REFERENCE_S = 0.008

sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import checks  # noqa: E402
from workloads import WORKLOADS, Call, Output  # noqa: E402


def import_program():
    """Import qcobweb from this checkout's src/ and nowhere else."""
    try:
        import qcobweb.cli as cli
    except ImportError as exc:
        sys.exit(f"bench: cannot import qcobweb from {SRC}: {exc}")
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit(f"bench: qcobweb was imported from {cli.__file__}, not from {SRC}")
    return cli


class Capture:
    """Stdout and stderr of one call; records when the first complete line was written."""

    def __init__(self):
        self.first_line = None
        self.stdout = _Stream(self)
        self.stderr = _Stream(self)


class _Stream(io.TextIOBase):
    def __init__(self, capture: Capture):
        super().__init__()
        self._capture = capture
        self.parts: list[str] = []

    def writable(self) -> bool:
        return True

    def write(self, s: str) -> int:
        if self._capture.first_line is None and "\n" in s:
            self._capture.first_line = time.perf_counter()
        self.parts.append(s)
        return len(s)

    def text(self) -> str:
        return "".join(self.parts)


def execute(cli, call: Call, tracer=None):
    """One timed CLI call; returns (output, seconds, seconds to first line)."""
    if call.messages_path and os.path.exists(call.messages_path):
        os.remove(call.messages_path)  # a call that fails must not leave the last call's log to be checked
    cap = Capture()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = cap.stdout, cap.stderr
    if tracer is not None:
        tracer.active = True
    start = time.perf_counter()
    try:
        rc = cli.main(call.argv)
    except (Exception, SystemExit):  # a crash or an argparse exit is a failed call, not a stopped run
        rc = "exception"
        print(traceback.format_exc(), file=saved[1], end="")
    finally:
        end = time.perf_counter()
        if tracer is not None:
            tracer.active = False
        sys.stdout, sys.stderr = saved
    messages = ""
    if call.messages_path and os.path.exists(call.messages_path):
        with open(call.messages_path, encoding="utf-8") as fh:
            messages = fh.read()
    first = (cap.first_line or end) - start
    return Output(rc, cap.stdout.text(), cap.stderr.text(), messages), end - start, first


def check_call(call: Call, out: Output, digests: dict) -> bool:
    """Run the call's own check and the repeat check; report a failure on stderr."""
    digest = hashlib.sha256(repr((out.rc, out.stdout, out.stderr, out.messages)).encode()).hexdigest()
    key = tuple(call.argv)
    try:
        call.check(out)
        seen = digests.setdefault(key, digest)
        checks.expect(seen == digest, "output differs from an earlier call with the same arguments and seed")
    except Exception as exc:  # output too malformed to parse fails its call like any other mismatch
        print(f"bench: check failed for {' '.join(call.argv)}: {type(exc).__name__}: {exc}", file=sys.stderr)
        return False
    return True


_CAL_QUBIT = np.array([0.6, 0.8j])
_CAL_SHARED = np.zeros(8, dtype=complex)
_CAL_SHARED[[1, 2, 4]] = (0.5, 0.5, -0.7)
_CAL_PROJECTOR = np.eye(2) / np.sqrt(2.0)


def calibration_kernel() -> float:
    """Seconds for a fixed mix of small-array numpy calls and plain Python work that does not touch qcobweb.

    The numpy half resembles one protocol trial (Kronecker product,
    contraction, norm, 2x2 eigensolve); the Python half is integer
    arithmetic, a dict and JSON text.  On a shared machine both halves slow
    down and speed up with the workloads, so the kernel measures machine speed.
    """
    start = time.perf_counter()
    for _ in range(60):
        joint = np.kron(_CAL_QUBIT, _CAL_SHARED).reshape(2, 2, 2, 2)
        residual = np.tensordot(_CAL_PROJECTOR, joint, axes=([0, 1], [0, 1])).reshape(-1)
        float(np.vdot(residual, residual).real)
        block = residual.reshape(2, 2)
        np.linalg.eigvalsh(block @ block.conj().T)
        json.dumps([[float(a.real), float(a.imag)] for a in residual])
    values = list(range(64))
    total = 0
    for i in range(30000):
        total += values[i % 64] * 3
    table = {str(i): i for i in range(3000)}
    json.dumps(table)
    return time.perf_counter() - start


def git_sha() -> str:
    """HEAD commit of the checkout; "unknown" when the checkout is not a git repository."""
    # the ceiling keeps git from reporting a repository that merely encloses the checkout
    env = {**os.environ, "GIT_CEILING_DIRECTORIES": os.path.dirname(ROOT)}
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def run_seconds() -> int:
    """The run length BENCHMARK.json sets."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)["run_seconds"]


def environment() -> dict:
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "platform": platform.platform(),
    }


def prepare(cli, workload: str, seed: int, workdir: str):
    """Generate the inputs and make the warm-up calls; exits if a warm-up call fails its check."""
    wl = WORKLOADS[workload](seed, workdir)
    digests: dict = {}
    for call in wl.warmup:
        out, _, _ = execute(cli, call)
        if not check_call(call, out, digests):
            sys.exit("bench: warm-up call failed")
    return wl


def measure_setup(args, tally: "Tally") -> None:
    """Seconds from starting a fresh process to ready, for SETUP_PROBES processes in turn."""
    seconds, kernel = [], [calibration_kernel()]
    for _ in range(SETUP_PROBES):
        cmd = [sys.executable, os.path.abspath(__file__), "--probe", "--workload", args.workload, "--seed", str(args.seed)]
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            proc.stdout.read()
            rc = proc.wait()
        if line.strip() != "ready" or rc != 0:
            sys.exit(f"bench: set-up probe failed (exit {rc}, said {line.strip()!r})")
        seconds.append(ready - start)
        kernel.append(calibration_kernel())
    tally.setup.extend((s, 0.5 * (kernel[i] + kernel[i + 1])) for i, s in enumerate(seconds))


class Tally:
    """What the calls of a run measured.

    Each timing is kept with the mean calibration-kernel time measured on
    either side of it: (seconds or rate, kernel seconds).
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.trials = 0
        self.bytes_out = 0
        self.setup: list[tuple[float, float]] = []
        self.batch_rates: list[tuple[float, float]] = []
        self.first_rows: list[tuple[float, float]] = []


def run_round(cli, wl, digests: dict, tally: Tally, tracer=None, py_peaks=None) -> None:
    """One pass over the workload's calls, each followed (outside its timing) by its checks.

    The calibration kernel runs before every batch and once after the last;
    a batch's timings are scaled by the mean of the kernel times on either side.
    """
    batch_ops: dict[int, int] = {}
    batch_time: dict[int, float] = {}
    batch_first: dict[int, list[float]] = {}
    kernel: list[float] = []
    for call in wl.calls:
        if call.batch not in batch_time:
            kernel.append(calibration_kernel())
            batch_time[call.batch] = 0.0
            batch_first[call.batch] = []
        gc.collect()
        if py_peaks is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        out, seconds, first = execute(cli, call, tracer)
        if py_peaks is not None:
            py_peaks.append(tracemalloc.get_traced_memory()[1] - base)
        if tracer is not None:
            tracer.collect()
        ok = check_call(call, out, digests)
        tally.attempted += call.ops
        tally.trials += call.trials
        tally.failed += 0 if ok else call.ops
        tally.bytes_out += len(out.stdout.encode()) + len(out.stderr.encode())
        if ok:
            batch_ops[call.batch] = batch_ops.get(call.batch, 0) + call.ops
        batch_time[call.batch] += seconds
        batch_first[call.batch].append(first)
    kernel.append(calibration_kernel())
    for i, batch in enumerate(batch_time):
        k = 0.5 * (kernel[i] + kernel[i + 1])
        tally.batch_rates.append((batch_ops.get(batch, 0) / batch_time[batch], k))
        tally.first_rows.extend((first, k) for first in batch_first[batch])


def scaled_median(samples: list[tuple[float, float]], rate: bool = False) -> float:
    """Median of the samples brought to machine speed 1.0 by the kernel time measured with each."""
    if rate:
        return statistics.median(value * kernel / CALIBRATION_REFERENCE_S for value, kernel in samples)
    return statistics.median(value * CALIBRATION_REFERENCE_S / kernel for value, kernel in samples)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=run_seconds())
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", help="result file (default: bench/results/<workload>-<seed>-<trace>-<pid>.json)")
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    cli = import_program()
    # Set-up probes share the work directory of the run that started them, and the run removes it: each
    # probe then rewrites the input files of the one before.  Creating hundreds of new files is slow and
    # erratic on some file systems, and that is the benchmark's own work, not the program's.
    owner = os.getppid() if args.probe else os.getpid()
    workdir = os.path.join(BENCH_DIR, ".work", f"{args.workload}-{owner}")
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.probe:
            prepare(cli, args.workload, args.seed, workdir)
            print("ready", flush=True)
            return 0
        tally = Tally()
        if not args.trace:
            measure_setup(args, tally)
        wl = prepare(cli, args.workload, args.seed, workdir)
        return measure(cli, wl, args, tally)
    finally:
        if not args.probe:
            shutil.rmtree(workdir, ignore_errors=True)


def measure(cli, wl, args, tally: Tally) -> int:
    tracer = None
    if args.trace:
        from layertrace import Tracer

        tracer = Tracer()
        tracer.install()
    gc.collect()
    gc.freeze()  # set-up objects leave the collector's view, so collecting between calls stays cheap
    digests: dict = {}
    rounds = 0
    # Untraced runs make every call at least twice, for the repeat check; traced runs repeat
    # them in the memory pass.
    min_rounds = 1 if tracer else 2
    start = time.perf_counter()
    while rounds < min_rounds or time.perf_counter() - start < args.seconds:
        run_round(cli, wl, digests, tally, tracer)
        rounds += 1
    wall = time.perf_counter() - start

    unscaled = {
        "setup_s": statistics.median(v for v, _ in tally.setup) if tally.setup else None,
        "ops_per_s": statistics.median(v for v, _ in tally.batch_rates),
        "first_row_ms": 1e3 * statistics.median(v for v, _ in tally.first_rows),
    }
    ops_per_s = scaled_median(tally.batch_rates, rate=True)  # traced runs record it to show the overhead
    if tracer is not None:
        ops, trials, bytes_out = tally.attempted, tally.trials, tally.bytes_out
        tracer.uninstall()
        spans = tracer.last_spans()
        py_peaks: list[int] = []
        tracemalloc.start()
        run_round(cli, wl, digests, tally, None, py_peaks)
        tracemalloc.stop()
        metrics = tracer.metrics(ops, trials, bytes_out, max(py_peaks) / 2**20)
    else:
        metrics = {
            "setup_s": {"value": scaled_median(tally.setup), "unit": "s"},
            "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
            "first_row_ms": {"value": 1e3 * scaled_median(tally.first_rows), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "unit": "MB"},
        }
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }
    record = {
        **result,
        "workload": wl.name,
        "op": wl.op,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "measured_wall_s": wall,
        "calibration_kernel_ms": 1e3 * statistics.median(k for _, k in tally.batch_rates),
        "ops_per_s": ops_per_s,
        "unscaled": unscaled,
        "setup_samples": tally.setup,
        "batch_samples": tally.batch_rates,
        "first_row_samples": len(tally.first_rows),
        "environment": environment(),
    }
    if tracer is not None:
        record["last_call_spans"] = spans
    out = args.out or os.path.join(BENCH_DIR, "results", f"{wl.name}-{args.seed}-{args.trace}-{os.getpid()}.json")
    os.makedirs(os.path.dirname(os.path.abspath(out)), exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
