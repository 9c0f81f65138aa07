"""One workload in one fresh process: a closed loop over the seeded case list.

The loop runs one case at a time and repeats the whole list until the
passes have taken at least ``--seconds``.  With ``--trace 1``
untraced and traced passes alternate, so the two can be compared.  Prints one
JSON object on its last stdout line; run.py turns it into metrics.
"""

import time

import clext
import clext.cli

IMPORTED_AT = time.monotonic()  # set-up ends once clext and clext.cli are imported

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path

import numpy as np

import cases as C
import tracing as T
from speed import MachineSpeed

GUARD_AS_MB = 512   # address-space limit of the guarded child
GUARD_WALL_S = 10.0

BENCH = Path(__file__).resolve().parent


def run_pssqm(case, f):
    spec = f["algebra.from_alpha"](case.lam, case.alpha)
    return C.outcome_of_pssqm(f["pssqm.solve_and_check"](spec, case.mu, dim=case.dim, r=case.r))


def run_verify(case, f):
    rep = f["fock.build_fock_rep"](f["algebra.from_alpha"](case.lam, case.alpha), case.dim)
    return C.outcome_of_verify(f["verify.defining_relations"](rep),
                               f["verify.projector_algebra"](rep))


def run_guarded(case, f):
    """The verify case in its own child, under a memory and a wall-clock limit."""
    argv = [sys.executable, str(BENCH / "guarded.py"), str(GUARD_AS_MB), str(case.lam),
            str(case.dim), ",".join(map(repr, case.alpha))]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=GUARD_WALL_S)
    except subprocess.TimeoutExpired:
        return {"error": C.WALL_GUARD}
    if proc.returncode == 3:
        return {"error": C.MEMORY_GUARD}
    if proc.returncode != 0:
        return {"error": f"guard: exit {proc.returncode}"}
    return json.loads(proc.stdout.splitlines()[-1])


def run_cli(case, f):
    """One in-process ``clext`` command, with the exit code a process would get.

    An uncaught exception is recorded by type and the function it was raised in.
    """
    out, err = io.StringIO(), io.StringIO()
    outcome = {}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome["exit"] = clext.cli.main(list(case.argv))
        except SystemExit as exc:
            outcome["exit"] = exc.code
        except Exception as exc:  # the interpreter would print it and exit 1
            outcome["exit"] = 1
            raised_in = traceback.extract_tb(exc.__traceback__)[-1].name
            outcome["uncaught"] = [type(exc).__name__, raised_in]
    outcome["out"] = out.getvalue()
    return outcome


RUNNERS = {"pssqm": run_pssqm, "verify": run_verify, "guarded": run_guarded, "cli": run_cli}


def run_pass(cases, f, tracer=None, speed=None):
    """Run every case once; returns (wall time, [(start, case time, outcome)])."""
    results = []
    started = time.perf_counter()
    for index, case in enumerate(cases):
        if speed:
            speed.sample_if_due()
        if tracer:
            tracer.case = index
            pssqm_errors = tracer.counts["pssqm.errors"]
        start = time.perf_counter()
        try:
            outcome = RUNNERS[case.kind](case, f)
        except Exception as exc:  # a failed case; the loop goes on
            outcome = {"error": type(exc).__name__, "message": str(exc)}
        elapsed = time.perf_counter() - start
        if tracer and tracer.counts["pssqm.errors"] > pssqm_errors:
            tracer.counts["pssqm.wasted_s"] += elapsed
        results.append((start, elapsed, outcome))
    return time.perf_counter() - started, results


def traced_pass(cases, tracer):
    with tracer.patched() as api:
        return run_pass(cases, api, tracer)


def time_metrics(times) -> dict:
    return {
        "cases_per_s": len(times) / sum(times),
        "case_s_p50": statistics.median(times),
        "case_s_p90": statistics.quantiles(times, n=10)[-1],
    }


def layer_metrics(tracers, traced_wall, plain_wall, cli_bytes, draws):
    """Per-layer metrics, as means over the traced passes."""
    n = len(tracers)
    totals = sum((t.self_times() for t in tracers), start=Counter())
    counts = sum((t.counts for t in tracers), start=Counter())
    metrics = {name: totals[name] / n for name in sorted(set(T.SELF_TIME_METRIC.values()))}
    for name in ("pssqm.flops_computed", "pssqm.bytes_computed", "verify.flops_computed",
                 "verify.bytes_computed", "pssqm.errors", "verify.errors", "spectrum.errors",
                 "cli.errors", "pssqm.wasted_s"):
        metrics[name] = counts[name] / n
    metrics["fock.build_fock_rep.calls"] = counts["fock.build_fock_rep.calls"] / n
    metrics["algebra.calls"] = sum(
        v for k, v in counts.items() if k.startswith("algebra.") and k.endswith(".calls")
    ) / n
    metrics["fock.rep_mb_max"] = max(t.rep_bytes_max for t in tracers) / 2**20
    metrics["algebra.sample_accept_ratio"] = draws.accepted / draws.gen.draws
    metrics["cli.report_bytes"] = cli_bytes / n
    metrics["trace.overhead_frac"] = (traced_wall - plain_wall) / plain_wall
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(C.CASE_LISTS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", help="write the traced spans here (JSON)")
    args = parser.parse_args(argv)

    cases, draws = C.build(args.workload, args.seed)
    speed = None if args.trace else MachineSpeed(args.workload)
    plain, traced, tracers = [], [], []
    started = time.monotonic()
    while True:
        # traced rounds alternate which pass goes first, so warm-up favours neither
        if args.trace and len(plain) % 2:
            tracers.append(T.Tracer())
            traced.append(traced_pass(cases, tracers[-1]))
        plain.append(run_pass(cases, T.PUBLIC, speed=speed))
        if args.trace and len(plain) % 2:
            tracers.append(T.Tracer())
            traced.append(traced_pass(cases, tracers[-1]))
        if time.monotonic() - started >= args.seconds:
            break

    # verdicts: against the oracle, and identical in every pass, traced or not
    correct = True
    attempted, verdicts, defects, fixed, unexpected = 0, Counter(), Counter(), Counter(), []
    reference = [outcome for _, _, outcome in plain[0][1]]
    for _, results in plain + traced:
        for case, ref, (_, _, outcome) in zip(cases, reference, results):
            attempted += 1
            correct &= outcome == ref
            verdict = C.verdict(case, outcome)
            verdicts[verdict] += 1
            if verdict == "defect":
                defects[case.defect] += 1
            elif verdict == "fixed":
                fixed[case.defect] += 1
            elif verdict == "wrong":
                correct = False
                unexpected.append({"kind": case.kind, "lam": case.lam, "mu": case.mu,
                                   "dim": case.dim, "argv": list(case.argv),
                                   "defect": case.defect,
                                   "outcome": {k: v for k, v in outcome.items() if k != "out"}})
    failed = verdicts["defect"] + verdicts["wrong"]

    # a case's time is its median over the passes; end-to-end times are scaled
    # to the nominal machine speed, the raw ones go into the run record
    per_case = list(zip(*(results for _, results in plain)))
    raw = [statistics.median(t for _, t, _ in runs) for runs in per_case]
    plain_wall = sum(wall for wall, _ in plain)
    record = {
        "imported_at": IMPORTED_AT,
        "why": C.WHY[args.workload],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cases_per_pass": len(cases),
        "passes": len(plain),
        "traced_passes": len(traced),
        "pass_walls_s": [wall for wall, _ in plain],
        "samples": len(raw) * len(plain),
        "raw_end_to_end": time_metrics(raw),
        "verdicts": dict(verdicts),
        "failed_by_defect": dict(defects),
        "fixed_by_defect": dict(fixed),
        "unexpected_failures": unexpected[:20],
    }
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "end_to_end": {
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "fail_frac": failed / attempted,
        },
        "record": record,
    }
    if speed:
        scaled = [statistics.median(t * speed.scale(start, start + t) for start, t, _ in runs)
                  for runs in per_case]
        result["end_to_end"].update(time_metrics(scaled))
        record["reference_kernel"] = {"nominal_s": speed.nominal_s, "samples": len(speed.took),
                                      "median_s": statistics.median(speed.took)}
    if args.trace:
        flops = {(t.counts["pssqm.flops_computed"], t.counts["verify.flops_computed"],
                  t.counts["pssqm.bytes_computed"], t.counts["verify.bytes_computed"])
                 for t in tracers}
        record["computed_counts_repeat"] = len(flops) == 1
        result["correct"] = correct and len(flops) == 1
        cli_bytes = sum(len(o.get("out", "").encode()) for _, res in traced for _, _, o in res)
        traced_wall = sum(wall for wall, _ in traced)
        result["per_layer"] = layer_metrics(
            tracers, traced_wall, plain_wall, cli_bytes, draws,
        )
        shares = Counter()
        for name, seconds in sum((t.self_times() for t in tracers), start=Counter()).items():
            shares[name.split(".")[0]] += seconds / traced_wall
        record["traced_layer_shares"] = dict(shares.most_common())
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                json.dump({"columns": ["pass", "case", "name", "start", "end", "parent"],
                           "spans": [[i, *span] for i, t in enumerate(tracers)
                                     for span in t.spans]}, fh)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
