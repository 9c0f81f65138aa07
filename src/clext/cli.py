"""Command-line front end.

Subcommands map onto the library one to one: ``verify`` runs the relation
checks, ``spectrum`` reports oscillator levels and degeneracy clusters,
``pssqm-solve`` / ``pssqm-check`` solve and verify the order-p
parasupersymmetry, ``ssqm`` covers the two lam = 2 variants, ``bd-scan``
sweeps the double-commutator obstruction, ``classify`` names the admissible
representation, and ``dump`` writes raw generator matrices.

A JSON config file (``--config``) may supply any parameter; flags override
file values.  Reports are deterministic: fixed key order, floats rounded to
15 significant digits, files written atomically.  Exit code 0 means every
emitted pass flag is true, 1 means some check failed, 2 means a usage or
validation problem.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass

import numpy as np

from . import __version__
from .algebra import AlgebraSpec, classify, from_alpha, from_kappa, sample_bfb_alpha
from .errors import ClextError, NonUnitaryError, ParseError, ValidationError
from .fock import build_fock_rep, ladder_matrices
from .pssqm import (
    DEFAULT_PSSQM_TOL,
    DEFAULT_SSQM_TOL,
    bd_scan,
    default_eta,
    ground_energy,
    solve_and_check,
    solve_config,
    ssqm_check,
)
from .spectrum import spectrum_report
from .verify import DEFAULT_TOL, verify_defining_relations, verify_projector_algebra

MAX_LAMBDA = 64  # CLI cap to bound report sizes; the library imposes none
DEFAULT_SEED = 42
DEFAULT_TOLS = {
    "verify": DEFAULT_TOL,
    "spectrum": 1e-12,
    "pssqm-solve": DEFAULT_PSSQM_TOL,
    "pssqm-check": DEFAULT_PSSQM_TOL,
    "ssqm": DEFAULT_SSQM_TOL,
    "bd-scan": DEFAULT_PSSQM_TOL,
    "classify": 1e-12,
    "dump": 1e-12,
}

_CONFIG_KEYS = {
    "command", "lambda", "alpha", "kappa", "dim", "tol", "p", "mu", "eta", "r",
    "samples", "seed", "out", "format", "variant", "matrix",
    "scan_from", "scan_to", "scan_points",
}


@dataclass
class RunConfig:
    """Validated parameters of one CLI invocation."""

    command: str
    lam: int
    alpha: list | None
    kappa: list | None
    dim: int
    tol: float
    p: int | None
    mu: int
    eta: list | None
    r: list | None
    samples: int | None
    seed: int
    out: str | None
    fmt: str
    variant: str
    matrix: str
    scan_from: float
    scan_to: float
    scan_points: int


def _parse_floats(text, name: str) -> list[float]:
    if isinstance(text, (list, tuple)):
        try:
            return [float(v) for v in text]
        except (TypeError, ValueError) as exc:
            raise ParseError(f"{name}: expected numbers, got {text!r}") from exc
    try:
        return [float(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(f"{name}: could not parse {text!r} as comma-separated floats") from exc


def _parse_complexes(text, name: str) -> list[complex]:
    if isinstance(text, (list, tuple)):
        out = []
        for v in text:
            if isinstance(v, (list, tuple)) and len(v) == 2:
                out.append(complex(float(v[0]), float(v[1])))
            elif isinstance(v, (int, float, complex)):
                out.append(complex(v))
            else:
                raise ParseError(f"{name}: expected number or [re, im] pair, got {v!r}")
        return out
    try:
        return [complex(tok) for tok in str(text).split(",") if tok.strip()]
    except ValueError as exc:
        raise ParseError(
            f"{name}: could not parse {text!r}; use comma-separated values like 0.25+0.25j"
        ) from exc


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying any of the flags")
    common.add_argument("--lambda", dest="lam", type=int, help="cyclic order (>= 2)")
    common.add_argument("--alpha", help="comma-separated sector couplings, sum zero")
    common.add_argument("--kappa", help="comma-separated complex couplings kappa_1..")
    common.add_argument("--dim", type=int, help="truncation dimension (default 12*lambda)")
    common.add_argument("--tol", type=float, help="residual tolerance")
    common.add_argument("--seed", type=int, help="RNG seed for sampling (default 42)")
    common.add_argument("--out", help="write the report to this path (atomic)")
    common.add_argument("--format", dest="fmt", choices=["json", "csv", "tsv"],
                        help="report format (csv/tsv for spectrum and bd-scan rows)")

    pssqm = argparse.ArgumentParser(add_help=False)
    pssqm.add_argument("--p", type=int, help="parasupersymmetry order (lambda = p + 1)")
    pssqm.add_argument("--mu", type=int, help="distinguished sector index (default 0)")
    pssqm.add_argument("--eta", help="supercharge coefficients (comma-separated complex)")

    parser = argparse.ArgumentParser(
        prog="clext",
        description="cyclic-group extended oscillator algebras: representations, "
        "relation verification, spectra, parasupersymmetry",
    )
    parser.add_argument("--version", action="version", version=f"clext {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("verify", parents=[common], help="check all defining relations")
    sub.add_parser("spectrum", parents=[common], help="oscillator levels and clusters")
    sub.add_parser("classify", parents=[common], help="which Fock representation exists")

    sub.add_parser("pssqm-solve", parents=[common, pssqm], help="solve the sector-shift chain")

    check = sub.add_parser("pssqm-check", parents=[common, pssqm],
                           help="verify the order-p relations")
    check.add_argument("--r", help="override the solved sector shifts (comma-separated)")
    check.add_argument("--samples", type=int,
                       help="check this many random admissible alpha draws instead")

    ssqm = sub.add_parser("ssqm", parents=[common], help="lam = 2 supersymmetry variants")
    ssqm.add_argument("--variant", choices=["unbroken", "broken", "both"],
                      help="which realization to check (default both)")

    scan = sub.add_parser("bd-scan", parents=[common, pssqm],
                          help="scan alpha_{mu+2} for the double-commutator variant")
    scan.add_argument("--scan-from", type=float, help="scan start (default -2)")
    scan.add_argument("--scan-to", type=float, help="scan end (default 0)")
    scan.add_argument("--scan-points", type=int, help="grid points (default 41)")

    dump = sub.add_parser("dump", parents=[common], help="write one generator matrix as text")
    dump.add_argument("--matrix", help="a, adag, num, t, or p<i> (default a)")
    return parser


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"config file {path} is not valid JSON: line {exc.lineno}: {exc.msg}") from exc
    if not isinstance(data, dict):
        raise ParseError(f"config file {path} must hold a JSON object")
    unknown = set(data) - _CONFIG_KEYS
    if unknown:
        raise ParseError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


_VECTOR_FLAGS = ("--alpha", "--kappa", "--eta", "--r")


def _merge_vector_flags(argv) -> list[str]:
    """Join vector flags with their values so leading minus signs survive argparse."""
    merged = []
    skip = False
    for i, token in enumerate(argv):
        if skip:
            skip = False
            continue
        if token in _VECTOR_FLAGS and i + 1 < len(argv):
            merged.append(f"{token}={argv[i + 1]}")
            skip = True
        else:
            merged.append(token)
    return merged


def parse_config(argv) -> RunConfig:
    """Parse argv (plus an optional config file) into a validated RunConfig."""
    namespace = _build_parser().parse_args(_merge_vector_flags(list(argv)))
    command = namespace.command
    file_values = _load_config_file(namespace.config) if namespace.config else {}
    if "command" in file_values and file_values["command"] != command:
        raise ValidationError(
            f"config file requests command {file_values['command']!r}; "
            f"invoked as {command!r}"
        )

    def pick(flag_name, file_key, default=None):
        value = getattr(namespace, flag_name, None)
        if value is not None:
            return value
        return file_values.get(file_key, default)

    lam = pick("lam", "lambda")
    alpha_raw = pick("alpha", "alpha")
    kappa_raw = pick("kappa", "kappa")
    p = pick("p", "p")
    mu = pick("mu", "mu", 0)
    eta_raw = pick("eta", "eta")
    r_raw = pick("r", "r")

    alpha = _parse_floats(alpha_raw, "alpha") if alpha_raw is not None else None
    kappa = _parse_complexes(kappa_raw, "kappa") if kappa_raw is not None else None
    eta = _parse_complexes(eta_raw, "eta") if eta_raw is not None else None
    shifts = _parse_floats(r_raw, "r") if r_raw is not None else None

    if alpha is not None and kappa is not None:
        raise ValidationError("give either --alpha or --kappa, not both")

    if lam is None and p is not None:
        lam = int(p) + 1
    if lam is None and alpha is not None:
        lam = len(alpha)
    if lam is None and kappa is not None:
        lam = len(kappa) + 1
    if lam is None and command == "bd-scan":
        lam = 3
    if lam is None:
        raise ValidationError("cyclic order unknown: give --lambda (or --alpha/--kappa/--p)")
    lam = int(lam)
    if lam < 2:
        raise ValidationError(f"lambda must be >= 2, got {lam}")
    if lam > MAX_LAMBDA:
        raise ValidationError(f"lambda capped at {MAX_LAMBDA} on the command line, got {lam}")

    pssqm_command = command in ("pssqm-solve", "pssqm-check", "bd-scan")
    if p is not None and int(p) + 1 != lam:
        raise ValidationError(
            f"lambda must equal p + 1 (got lambda = {lam}, p = {p}); "
            f"set --lambda {int(p) + 1} or drop one of the flags"
        )
    if pssqm_command and p is None:
        p = lam - 1
    if command == "bd-scan" and lam != 3:
        raise ValidationError(f"bd-scan runs at order p = 2 (lambda = 3), got lambda = {lam}")
    if command == "ssqm" and lam != 2:
        raise ValidationError(f"ssqm needs lambda = 2, got lambda = {lam}")

    samples = pick("samples", "samples")
    if samples is not None and int(samples) < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    if alpha is None and kappa is None:
        if command == "bd-scan":
            alpha = [0.0, 0.0, 0.0]
        elif not (command == "pssqm-check" and samples is not None):
            raise ValidationError("no algebra parameters: give --alpha or --kappa")

    dim = pick("dim", "dim")
    dim = int(dim) if dim is not None else 12 * lam
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")

    tol = pick("tol", "tol")
    tol = float(tol) if tol is not None else DEFAULT_TOLS[command]
    fmt = pick("fmt", "format", "json")
    if fmt != "json" and command not in ("spectrum", "bd-scan"):
        raise ValidationError(f"format {fmt!r} is only available for spectrum and bd-scan")

    return RunConfig(
        command=command,
        lam=lam,
        alpha=alpha,
        kappa=kappa,
        dim=dim,
        tol=tol,
        p=int(p) if p is not None else None,
        mu=int(mu),
        eta=eta,
        r=shifts,
        samples=int(samples) if samples is not None else None,
        seed=int(pick("seed", "seed", DEFAULT_SEED)),
        out=pick("out", "out"),
        fmt=fmt,
        variant=pick("variant", "variant", "both"),
        matrix=pick("matrix", "matrix", "a"),
        scan_from=float(pick("scan_from", "scan_from", -2.0)),
        scan_to=float(pick("scan_to", "scan_to", 0.0)),
        scan_points=int(pick("scan_points", "scan_points", 41)),
    )


def _build_spec(cfg: RunConfig) -> AlgebraSpec:
    if cfg.kappa is not None:
        return from_kappa(cfg.lam, cfg.kappa)
    return from_alpha(cfg.lam, cfg.alpha)


def _round15(value: float) -> float:
    return float(format(value, ".15g"))


def _clean(obj):
    """Normalize a report tree for deterministic JSON output."""
    if isinstance(obj, dict):
        return {k: _clean(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_clean(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (complex, np.complexfloating)):
        return [_round15(float(obj.real)), _round15(float(obj.imag))]
    if isinstance(obj, (float, np.floating)):
        return _round15(float(obj))
    if isinstance(obj, np.ndarray):
        return [_clean(v) for v in obj.tolist()]
    return obj


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".clext-tmp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str, summary_lines) -> None:
    if cfg.out:
        _write_atomic(cfg.out, text)
        for line in summary_lines:
            print(line)
        print(f"report written to {cfg.out}")
    else:
        sys.stdout.write(text)


def _header(cfg: RunConfig, spec: AlgebraSpec | None) -> dict:
    return {
        "command": cfg.command,
        "version": __version__,
        "lambda": cfg.lam,
        "alpha": list(spec.alpha) if spec is not None else None,
        "kappa": [[z.real, z.imag] for z in spec.kappa] if spec is not None else None,
        "dim": cfg.dim,
        "tol": cfg.tol,
        "seed": cfg.seed,
    }


def _rows_text(header_row: list[str], rows: list[list], sep: str) -> str:
    lines = [sep.join(header_row)]
    for row in rows:
        lines.append(sep.join("" if v is None else str(_clean(v)) for v in row))
    return "\n".join(lines) + "\n"


def _cmd_verify(cfg: RunConfig):
    spec = _build_spec(cfg)
    rep = build_fock_rep(spec, cfg.dim)
    defining = verify_defining_relations(rep, tol=cfg.tol)
    projectors = verify_projector_algebra(rep, tol=cfg.tol)
    body = {
        "defining_relations": defining.to_dict(),
        "projector_algebra": projectors.to_dict(),
        "all_pass": defining.all_pass and projectors.all_pass,
    }
    summary = [
        f"{e.relation:<26} residual {e.residual:9.3e}  {'ok' if e.passed else 'FAIL'}"
        for e in defining.entries + projectors.entries
    ]
    return spec, body, body["all_pass"], None, summary


def _cmd_spectrum(cfg: RunConfig):
    spec = _build_spec(cfg)
    rep = build_fock_rep(spec, cfg.dim)
    report = spectrum_report(rep)
    body = report.to_dict()
    rows = [[n, energy, sector] for n, energy, sector in report.levels]
    summary = [
        f"n={n:<4d} sector={sector}  E={energy:.12g}" for n, energy, sector in report.levels[:8]
    ]
    if len(report.levels) > 8:
        summary.append(f"... {len(report.levels)} levels, "
                       f"{len(report.clusters)} clusters")
    return spec, body, True, (["n", "energy", "sector"], rows), summary


def _cmd_classify(cfg: RunConfig):
    spec = _build_spec(cfg)
    try:
        result = classify(spec)
        body = {
            "kind": result.kind.value,
            "dim": result.dim,
            "witnesses": list(result.witnesses),
        }
    except NonUnitaryError as exc:
        body = {"kind": "non-unitary", "dim": None, "detail": str(exc)}
    summary = [f"kind: {body['kind']}" + (f" (dim {body['dim']})" if body.get("dim") else "")]
    return spec, body, True, None, summary


def _cmd_pssqm_solve(cfg: RunConfig):
    spec = _build_spec(cfg)
    config = solve_config(spec, cfg.mu, cfg.eta)
    body = {
        "p": config.p,
        "mu": cfg.mu,
        "eta": [[z.real, z.imag] for z in config.eta],
        "eta_norm_sq": float((np.abs(config.eta) ** 2).sum()),
        "r": list(config.r),
        "ground_energy": ground_energy(spec, cfg.mu, cfg.eta),
    }
    summary = [f"r = {list(config.r)}", f"ground energy = {body['ground_energy']:.12g}"]
    return spec, body, True, None, summary


def _single_khare_body(cfg: RunConfig, spec: AlgebraSpec) -> dict:
    run = solve_and_check(spec, cfg.mu, dim=cfg.dim, eta=cfg.eta, r=cfg.r, tol=cfg.tol)
    return {
        "p": spec.lam - 1,
        "mu": cfg.mu,
        "eta": [[z.real, z.imag] for z in run.eta],
        "solved_r": list(run.solved_r),
        "used_r": list(run.used_r),
        "relations": run.report.to_dict(),
        "breaking": run.breaking.to_dict(),
        "pass": run.report.passed and run.breaking.matches_prediction,
    }


def _cmd_pssqm_check(cfg: RunConfig):
    if cfg.samples is None:
        spec = _build_spec(cfg)
        body = _single_khare_body(cfg, spec)
        rel = body["relations"]
        summary = [
            f"nilpotency    {rel['residual_nilpotency']:.3e}",
            f"commutator    {rel['residual_commutator']:.3e}",
            f"multilinear   {rel['residual_multilinear']:.3e}",
            f"breaking      {body['breaking']['breaking']} "
            f"(ground x{body['breaking']['ground_multiplicity']})",
            f"pass          {body['pass']}",
        ]
        return spec, body, body["pass"], None, summary

    rng = np.random.default_rng(cfg.seed)
    rows = []
    signs = {"positive": 0, "negative": 0, "null": 0}
    for _ in range(cfg.samples):
        alpha = sample_bfb_alpha(cfg.lam, rng)
        spec_i = from_alpha(cfg.lam, alpha)
        run = solve_and_check(spec_i, cfg.mu, dim=cfg.dim, eta=cfg.eta, tol=cfg.tol)
        energy = run.report.ground_energy
        if energy > 1e-9:
            signs["positive"] += 1
        elif energy < -1e-9:
            signs["negative"] += 1
        else:
            signs["null"] += 1
        rows.append(
            {
                "alpha": list(alpha),
                "ground_energy": energy,
                "max_residual": max(
                    run.report.residual_nilpotency,
                    run.report.residual_commutator,
                    run.report.residual_multilinear,
                ),
                "pass": run.report.passed and run.breaking.matches_prediction,
            }
        )
    all_pass = all(row["pass"] for row in rows)
    body = {
        "p": cfg.lam - 1,
        "mu": cfg.mu,
        "samples": cfg.samples,
        "rows": rows,
        "sign_counts": signs,
        "all_pass": all_pass,
    }
    summary = [f"{cfg.samples} samples, sign counts {signs}", f"all pass: {all_pass}"]
    return None, body, all_pass, None, summary


def _cmd_ssqm(cfg: RunConfig):
    spec = _build_spec(cfg)
    rep = build_fock_rep(spec, cfg.dim)
    variants = ["unbroken", "broken"] if cfg.variant == "both" else [cfg.variant]
    reports = [ssqm_check(rep, variant, tol=cfg.tol) for variant in variants]
    body = {
        "variants": [r.to_dict() for r in reports],
        "all_pass": all(r.passed for r in reports),
    }
    summary = [
        f"{r.variant:<9} ground E={r.ground_energy:.6g} x{r.ground_multiplicity}  "
        f"{'ok' if r.passed else 'FAIL'}"
        for r in reports
    ]
    return spec, body, body["all_pass"], None, summary


def _cmd_bd_scan(cfg: RunConfig):
    spec = _build_spec(cfg)
    points = bd_scan(
        spec.alpha,
        cfg.mu,
        cfg.scan_from,
        cfg.scan_to,
        cfg.scan_points,
        dim=cfg.dim,
        eta=cfg.eta,
        tol=cfg.tol,
    )
    compatible = [pt.parameter for pt in points if pt.residual is not None and pt.residual <= cfg.tol]
    body = {
        "mu": cfg.mu,
        "scanned_component": (cfg.mu + 2) % 3,
        "rows": [pt.to_dict() for pt in points],
        "compatible_parameters": compatible,
    }
    rows = [[pt.parameter, pt.residual] for pt in points]
    summary = [f"{len(points)} points, compatible at {compatible}"]
    return spec, body, True, (["parameter", "residual"], rows), summary


def _cmd_dump(cfg: RunConfig):
    spec = _build_spec(cfg)
    rep = build_fock_rep(spec, cfg.dim)
    name = cfg.matrix.lower()
    a, adag = ladder_matrices(rep)
    matrices = {"a": a, "adag": adag, "num": rep.num, "t": rep.T}
    for mu in range(spec.lam):
        matrices[f"p{mu}"] = rep.P[mu]
    if name not in matrices:
        raise ValidationError(
            f"unknown matrix {cfg.matrix!r}; choose from {sorted(matrices)}"
        )
    mat = matrices[name]  # N, T and P_mu are stored as their diagonals
    mat = np.asarray(np.diag(mat) if mat.ndim == 1 else mat, dtype=complex)
    lines = []
    for col in range(rep.dim):
        for row in range(rep.dim):
            value = mat[row, col]
            lines.append(f"{float(value.real)!r},{float(value.imag)!r}")
    text = "\n".join(lines) + "\n"
    if cfg.out:
        _write_atomic(cfg.out, text)
        print(f"{name}: {rep.dim}x{rep.dim} column-major entries written to {cfg.out}")
    else:
        sys.stdout.write(text)
    return 0


_HANDLERS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "pssqm-solve": _cmd_pssqm_solve,
    "pssqm-check": _cmd_pssqm_check,
    "ssqm": _cmd_ssqm,
    "bd-scan": _cmd_bd_scan,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    if cfg.command == "dump":
        return _cmd_dump(cfg)
    spec, body, all_pass, rows, summary = _HANDLERS[cfg.command](cfg)
    if cfg.fmt in ("csv", "tsv") and rows is not None:
        header_row, data_rows = rows
        text = _rows_text(header_row, data_rows, "," if cfg.fmt == "csv" else "\t")
    else:
        document = {"header": _header(cfg, spec), "body": body}
        text = json.dumps(_clean(document), indent=2) + "\n"
    _emit(cfg, text, summary)
    return 0 if all_pass else 1


def main(argv=None) -> int:
    try:
        cfg = parse_config(sys.argv[1:] if argv is None else argv)
        return run(cfg)
    except (ParseError, ValidationError) as exc:
        print(f"clext: error: {exc}", file=sys.stderr)
        return 2
    except (ClextError, ValueError) as exc:
        print(f"clext: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"clext: i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
