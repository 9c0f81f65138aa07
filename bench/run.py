"""clext benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload pssqm-sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; it measures the ``clext`` under
``src/``.  Each run:

* spawns fresh interpreters that import ``clext`` and ``clext.cli`` and takes
  the median time from spawn to import as ``setup_s``;
* runs the workload's seeded case list in one more fresh process, one case
  at a time (a closed loop with one client and one BLAS thread), and checks
  every verdict against the expected one (see cases.py);
* scales every end-to-end time to a nominal machine speed with reference
  kernels timed alongside (see speed.py); raw times go into the run record;
* with ``--trace 1``, also traces every layer, times a few real ``clext``
  processes and the tier-1 test suite, and reports per-layer metrics instead
  of end-to-end ones.

The last stdout line is the result JSON; the line before it is the run
record (seed, versions, thread counts, why the workload was chosen, ...),
which is also written under bench/out/ with the spans of a traced run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

BLAS_THREADS = 1
for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = str(BLAS_THREADS)  # before numpy loads, here and in every child

from speed import MachineSpeed  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"

WORKLOADS = ("pssqm-sweep", "verify-sweep", "cli-mix")
SETUP_PROBES = 11
PROBE = "import time, clext, clext.cli; print(time.monotonic())"
RUN_LIMIT_S = 170  # every run ends within this, child processes included

END_TO_END = {
    "setup_s": "s",
    "cases_per_s": "1/s",
    "case_s_p50": "s",
    "case_s_p90": "s",
    "peak_rss_mb": "MB",
    "fail_frac": "ratio",
}
PER_LAYER = {
    "pssqm.solve_r.s": "s",
    "pssqm.build_supercharge.s": "s",
    "pssqm.khare_check.s": "s",
    "pssqm.classify_breaking.s": "s",
    "pssqm.ssqm_check.s": "s",
    "pssqm.bd_scan.s": "s",
    "pssqm.solve_and_check.s": "s",
    "pssqm.other.s": "s",
    "pssqm.flops_computed": "flop",
    "pssqm.bytes_computed": "B",
    "pssqm.errors": "count",
    "pssqm.wasted_s": "s",
    "verify.defining_relations.s": "s",
    "verify.projector_algebra.s": "s",
    "verify.flops_computed": "flop",
    "verify.bytes_computed": "B",
    "verify.errors": "count",
    "fock.build_fock_rep.s": "s",
    "fock.build_fock_rep.calls": "count",
    "fock.rep_mb_max": "MB",
    "spectrum.spectrum_report.s": "s",
    "spectrum.shifted_hamiltonian.s": "s",
    "spectrum.errors": "count",
    "algebra.s": "s",
    "algebra.calls": "count",
    "algebra.sample_accept_ratio": "ratio",
    "cli.parse_config.s": "s",
    "cli.run.s": "s",
    "cli.serialize.s": "s",
    "cli.report_bytes": "B",
    "cli.errors": "count",
    "cli.subprocess_s_p50": "s",
    "trace.overhead_frac": "ratio",
}

#: A fixed handful of real ``clext`` processes, each expected to exit 0.
SUBPROCESS_COMMANDS = (
    ["classify", "--lambda", "3", "--alpha", "1,-0.5,-0.5"],
    ["pssqm-solve", "--p", "2", "--alpha", "1,-0.5,-0.5"],
    ["pssqm-check", "--p", "2", "--alpha", "1,-0.5,-0.5"],
    ["spectrum", "--lambda", "3", "--alpha", "1,-0.5,-0.5", "--format", "csv"],
    ["ssqm", "--lambda", "2", "--alpha", "0,0"],
)


def child_env() -> dict:
    return dict(
        os.environ,
        PYTHONPATH=str(ROOT / "src"),
        PYTHONDONTWRITEBYTECODE="1",
        TMPDIR=str(OUT / "tmp"),
    )


def remaining(deadline: float) -> float:
    return max(1.0, deadline - time.monotonic())


def setup_probe(env: dict, deadline: float, speed: MachineSpeed) -> tuple[float, float]:
    """Spawn-to-import time of one fresh interpreter, raw and scaled."""
    speed.sample_if_due()
    start, spawned = time.perf_counter(), time.monotonic()
    proc = subprocess.run([sys.executable, "-c", PROBE], env=env, capture_output=True,
                          text=True, check=True, timeout=remaining(deadline))
    took = float(proc.stdout.split()[-1]) - spawned
    return took, took * speed.scale(start, start + took)


def real_cli_runs(env: dict, deadline: float) -> tuple[float, bool]:
    """Median wall time of the fixed ``clext`` processes, and whether all exited 0."""
    walls, ok = [], True
    for command in SUBPROCESS_COMMANDS:
        start = time.monotonic()
        proc = subprocess.run([sys.executable, "-m", "clext.cli", *command], env=env,
                              cwd=ROOT, capture_output=True, timeout=remaining(deadline))
        walls.append(time.monotonic() - start)
        ok &= proc.returncode == 0
    return statistics.median(walls), ok


def tier1_record(env: dict, deadline: float) -> dict | None:
    """Wall time and slowest test of the tier-1 suite; recorded, never gated."""
    if not (ROOT / "tests").is_dir():
        return None
    argv = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--durations=1",
            f"--basetemp={OUT / 'pytest'}", "tests"]
    start = time.monotonic()
    try:
        proc = subprocess.run(argv, env=env, cwd=ROOT, capture_output=True, text=True,
                              timeout=remaining(deadline))
    except subprocess.TimeoutExpired:
        return {"wall_s": time.monotonic() - start, "summary": "timed out"}
    lines = proc.stdout.splitlines()
    slowest = next((l.strip() for l in lines if re.match(r"^\d+\.\d+s (call|setup|teardown)", l)),
                   None)
    return {"wall_s": time.monotonic() - start, "exit": proc.returncode,
            "summary": lines[-1].strip("= ") if lines else "", "slowest": slowest}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "clext" / "cli.py").is_file():
        print(f"bench: no clext sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (OUT / "tmp").mkdir(parents=True, exist_ok=True)
    env = child_env()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"

    speed = MachineSpeed("setup")
    setup = [setup_probe(env, deadline, speed) for _ in range(SETUP_PROBES)]
    speed.sample_if_due()
    worker = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--seconds", str(args.seconds),
              "--trace", str(args.trace), "--spans", str(OUT / f"spans-{tag}.json")]
    start, spawned = time.perf_counter(), time.monotonic()
    proc = subprocess.run(worker, env=env, stdout=subprocess.PIPE, text=True,
                          timeout=remaining(deadline))
    if proc.returncode != 0:
        print(f"bench: worker exited {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(proc.stdout.splitlines()[-1])
    record = result["record"]
    took = record.pop("imported_at") - spawned
    setup.append((took, took * speed.scale(start, start + took)))

    correct = result["correct"]
    if args.trace:
        metrics = dict(result["per_layer"])
        metrics["cli.subprocess_s_p50"], cli_ok = real_cli_runs(env, deadline)
        correct &= cli_ok
        record["tier1"] = tier1_record(env, deadline)
        units = PER_LAYER
    else:
        metrics = dict(result["end_to_end"], setup_s=statistics.median(s for _, s in setup))
        units = END_TO_END

    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        blas_threads=BLAS_THREADS,
        nproc=len(os.sched_getaffinity(0)),
        setup_samples_raw_s=[raw for raw, _ in setup],
    )
    (OUT / f"record-{tag}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps({"run_record": record}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
