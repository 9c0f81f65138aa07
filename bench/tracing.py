"""In-memory spans and counters around calls into clext's public functions.

A span is ``[case, name, start, end, parent]``; spans of one case share the
case id.  A layer's self time is a span's duration minus the time covered by
its direct children.  An exception is counted once, under the layer of the
innermost traced call it escaped from.

While tracing, the names that ``clext.cli`` and ``clext.pssqm`` use for
the public functions are routed through the same spans, so a composite call
such as ``solve_and_check`` or ``bd_scan`` shows its public steps, in its own
order and with its own arguments, as child spans.

Operation counts are computed, not measured: each dense public call does a
fixed number of ``dim x dim`` complex matmuls (checked against the seed code
by counting them), each taken as ``8 dim^3`` flops and ``3 dim^2 itemsize``
bytes (two operands read, one result written).  Dim and itemsize are read
from the representation and matrices the call is given.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from collections import Counter
from contextlib import contextmanager

import clext
import clext.cli
import clext.pssqm


def _rep_ops(matmuls):
    def ops(args):
        rep = args["rep"]
        return matmuls(rep.spec.lam), rep.dim, rep.a.dtype.itemsize
    return ops


#: Matmul count of each dense public call, as (matmuls, dim, itemsize).
#: Composite calls (solve_and_check, bd_scan) are counted through their steps.
OPS = {
    "pssqm.build_supercharge": _rep_ops(lambda lam: lam - 1),
    "pssqm.khare_check": lambda a: (
        3 * (a["rep"].spec.lam - 1) + 6, a["rep"].dim, a["charge"].dtype.itemsize
    ),
    "pssqm.ssqm_check": _rep_ops(lambda lam: 10),
    # the double commutator; its supercharge is counted by build_supercharge
    "pssqm.beckers_debergh_check": _rep_ops(lambda lam: 5),
    "verify.defining_relations": _rep_ops(lambda lam: lam * lam + 7 * lam + 12),
    "verify.projector_algebra": _rep_ops(lambda lam: lam * lam + lam - 1),
}

#: Public functions wrapped while tracing, by span name.  The same wrappers
#: serve the benchmark's own calls and the calls that ``clext.cli`` and
#: ``clext.pssqm`` make into the layers.
PUBLIC = {
    "algebra.from_alpha": clext.from_alpha,
    "algebra.from_kappa": clext.from_kappa,
    "algebra.classify": clext.classify,
    "algebra.sample_bfb_alpha": clext.sample_bfb_alpha,
    "fock.build_fock_rep": clext.build_fock_rep,
    "verify.defining_relations": clext.verify_defining_relations,
    "verify.projector_algebra": clext.verify_projector_algebra,
    "spectrum.spectrum_report": clext.spectrum_report,
    "spectrum.shifted_hamiltonian": clext.shifted_hamiltonian,
    "pssqm.default_eta": clext.default_eta,
    "pssqm.solve_r": clext.solve_r,
    "pssqm.build_supercharge": clext.build_supercharge,
    "pssqm.khare_check": clext.khare_check,
    "pssqm.classify_breaking": clext.classify_breaking,
    "pssqm.solve_and_check": clext.solve_and_check,
    "pssqm.solve_config": clext.solve_config,
    "pssqm.ground_energy": clext.ground_energy,
    "pssqm.ssqm_check": clext.ssqm_check,
    "pssqm.bd_scan": clext.bd_scan,
    "pssqm.beckers_debergh_check": clext.beckers_debergh_check,
    "cli.parse_config": clext.cli.parse_config,
    "cli.run": clext.cli.run,
}

#: Report classes whose ``to_dict`` counts as CLI serialization.
REPORTS = (
    clext.ResidualReport, clext.SpectrumReport, clext.Cluster, clext.PssqmReport,
    clext.BreakingReport, clext.SsqmReport, clext.BdScanPoint,
)

#: Span name -> per-layer self-time metric.
SELF_TIME_METRIC = {
    "algebra.from_alpha": "algebra.s",
    "algebra.from_kappa": "algebra.s",
    "algebra.classify": "algebra.s",
    "algebra.sample_bfb_alpha": "algebra.s",
    "fock.build_fock_rep": "fock.build_fock_rep.s",
    "verify.defining_relations": "verify.defining_relations.s",
    "verify.projector_algebra": "verify.projector_algebra.s",
    "spectrum.spectrum_report": "spectrum.spectrum_report.s",
    "spectrum.shifted_hamiltonian": "spectrum.shifted_hamiltonian.s",
    "pssqm.solve_r": "pssqm.solve_r.s",
    "pssqm.build_supercharge": "pssqm.build_supercharge.s",
    "pssqm.khare_check": "pssqm.khare_check.s",
    "pssqm.classify_breaking": "pssqm.classify_breaking.s",
    "pssqm.solve_and_check": "pssqm.solve_and_check.s",
    "pssqm.ssqm_check": "pssqm.ssqm_check.s",
    "pssqm.bd_scan": "pssqm.bd_scan.s",
    "pssqm.beckers_debergh_check": "pssqm.bd_scan.s",  # bd_scan's per-point check
    "pssqm.default_eta": "pssqm.other.s",
    "pssqm.solve_config": "pssqm.other.s",
    "pssqm.ground_energy": "pssqm.other.s",
    "cli.parse_config": "cli.parse_config.s",
    "cli.run": "cli.run.s",
    "cli.serialize": "cli.serialize.s",
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.case = None
        self.counts: Counter = Counter()
        self.rep_bytes_max = 0

    def wrap(self, name: str, fn):
        layer = name.split(".")[0]
        ops = OPS.get(name)
        signature = inspect.signature(fn) if ops else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if ops:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                matmuls, dim, itemsize = ops(bound.arguments)
                self.counts[f"{layer}.flops_computed"] += matmuls * 8 * dim**3
                self.counts[f"{layer}.bytes_computed"] += matmuls * 3 * dim**2 * itemsize
            self.counts[f"{name}.calls"] += 1
            idx = len(self.spans)
            self.spans.append([self.case, name, time.perf_counter(), None,
                               self.stack[-1] if self.stack else -1])
            self.stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if not getattr(exc, "_bench_counted", False):
                    exc._bench_counted = True
                    self.counts[f"{layer}.errors"] += 1
                raise
            finally:
                self.spans[idx][3] = time.perf_counter()
                self.stack.pop()
            if name == "fock.build_fock_rep":
                arrays = (result.a, result.adag, result.num, result.T, *result.P)
                self.rep_bytes_max = max(self.rep_bytes_max, sum(a.nbytes for a in arrays))
            return result

        return traced

    @contextmanager
    def patched(self):
        """The public functions, each wrapped in a span; for the duration of
        the block clext.cli's and clext.pssqm's calls into the layers and the
        CLI's serialization go through the same spans."""
        wrapped = {name: self.wrap(name, fn) for name, fn in PUBLIC.items()}
        saved = []
        for module in (clext.cli, clext.pssqm):
            for name, fn in PUBLIC.items():
                attr = fn.__name__
                if getattr(module, attr, None) is fn:
                    saved.append((module, attr, fn))
                    setattr(module, attr, wrapped[name])
        for cls in REPORTS:
            saved.append((cls, "to_dict", cls.to_dict))
            cls.to_dict = self.wrap("cli.serialize", cls.to_dict)
        saved.append((json, "dumps", json.dumps))
        json.dumps = self.wrap("cli.serialize", json.dumps)
        try:
            yield wrapped
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def self_times(self) -> Counter:
        child_time = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        totals: Counter = Counter()
        for (_, name, start, end, _), children in zip(self.spans, child_time):
            metric = SELF_TIME_METRIC.get(name)
            if metric:
                totals[metric] += end - start - children
        return totals
