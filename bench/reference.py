"""Reference figures for the rows of the ROADMAP baseline table.

    python3 bench/reference.py

Times `run_protocol` with a forced outcome at N = 3, 12, 16, 20 (median of
several calls); a sampled `run_protocol` against `Transcript.to_dict` plus
`json.dumps` of its result at N = 3, 12, 16; the CLI calls
`run --gen cube --trials 10000` and `run --gen roots:12 --trials 1000`
in-process; and the peak RSS of `run --gen roots:16` at 5 and 40 trials,
each in a fresh process.  Output
goes to a discarded sink; nothing is written to disk.
"""
from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

import run  # noqa: E402

cli = run.import_program()
from qcobweb import BellOutcome, UnknownQubit, roots_of_unity_zsa, run_protocol  # noqa: E402

RSS_PROBE = """
import contextlib, io, resource, sys
sys.path.insert(0, {src!r})
from qcobweb.cli import main
with contextlib.redirect_stdout(io.StringIO()):
    main({argv!r})
print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0)
"""


def timed_cli(argv: list[str]) -> tuple[float, int]:
    out = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    seconds = time.perf_counter() - start
    if rc != 0:
        raise RuntimeError(f"{' '.join(argv)} exited {rc}")
    return seconds, len(out.getvalue().encode())


def main() -> int:
    # First, while this process is small: a forked child starts from its parent's peak RSS.
    for trials in (5, 40):
        argv = ["run", "--gen", "roots:16", "--theta", "1.1", "--trials", str(trials)]
        code = RSS_PROBE.format(src=run.SRC, argv=argv)
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True)
        print(f"peak RSS, {' '.join(argv)}: {float(proc.stdout):.0f} MB")
    q = UnknownQubit(1.1, 0.3)
    for n, reps in ((3, 200), (12, 50), (16, 10), (20, 5)):
        z = roots_of_unity_zsa(n)
        times = []
        for _ in range(reps):
            start = time.perf_counter()
            run_protocol(q, z, outcome=BellOutcome.PSI_PLUS)
            times.append(time.perf_counter() - start)
        print(f"run_protocol forced, N={n}: median {1e3 * statistics.median(times):.3f} ms over {reps} calls")
    for n, reps in ((3, 200), (12, 50), (16, 10)):
        z = roots_of_unity_zsa(n)
        run_times, dict_times = [], []
        for seed in range(reps):
            start = time.perf_counter()
            transcript = run_protocol(q, z, seed=seed)
            middle = time.perf_counter()
            json.dumps(transcript.to_dict())
            run_times.append(middle - start)
            dict_times.append(time.perf_counter() - middle)
        print(f"N={n}: sampled run_protocol {1e3 * statistics.median(run_times):.3f} ms, "
              f"to_dict + json.dumps {1e3 * statistics.median(dict_times):.3f} ms (medians of {reps})")
    for argv in (["run", "--gen", "cube", "--theta", "1.1", "--trials", "10000"],
                 ["run", "--gen", "roots:12", "--theta", "1.1", "--trials", "1000"]):
        seconds, size = timed_cli(argv)
        print(f"{' '.join(argv)}: {seconds:.2f} s, {size / 1e6:.1f} MB of output")
    print(f"this process: peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0:.0f} MB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
