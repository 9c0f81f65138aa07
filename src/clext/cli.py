"""Command-line front end.

Subcommands map onto the library one to one: ``verify`` runs the relation
checks, ``spectrum`` reports oscillator levels and degeneracy clusters,
``pssqm-solve`` / ``pssqm-check`` solve and verify the order-p
parasupersymmetry, ``ssqm`` covers the two lam = 2 variants, ``bd-scan``
sweeps the double-commutator obstruction, ``classify`` names the admissible
representation, and ``dump`` writes raw generator matrices.

A JSON config file (``--config``) may supply any parameter; its values are
converted and checked exactly like flag text, and flags override them.
Reports are deterministic: fixed key order, floats rounded to 15
significant digits, files written atomically.  Exit code 0 means every
emitted pass flag is true, 1 means some check failed, 2 means a usage or
validation problem.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import stat
import sys
import tempfile

import numpy as np

from . import __version__
from .algebra import AlgebraSpec, classify, from_alpha, from_kappa, sample_bfb_alpha
from .errors import ClextError, NonFiniteError, NonUnitaryError, ParseError, ValidationError
from .fock import build_fock_rep
from .pssqm import (
    CHECK_DTYPE,
    DEFAULT_PSSQM_TOL,
    DEFAULT_SSQM_TOL,
    MULTILINEAR_DENSE_WORDS,
    NULL_ENERGY_TOL,
    bd_scan,
    ground_energy,
    solve_and_check,
    solve_config,
    ssqm_check,
)
from .spectrum import spectrum_report
from .verify import DEFAULT_TOL, verify_defining_relations, verify_projector_algebra

MAX_LAMBDA = 64  # CLI cap to bound report sizes; the library imposes none
MAX_HELD_BYTES = 1 << 30  # what one command may hold at once; caps dims and row counts
DEFAULT_TOLS = {  # every other command takes verify's
    "pssqm-solve": DEFAULT_PSSQM_TOL,
    "pssqm-check": DEFAULT_PSSQM_TOL,
    "ssqm": DEFAULT_SSQM_TOL,
    "bd-scan": DEFAULT_PSSQM_TOL,
}


#: What a value of each scalar kind, or an entry of a vector, may be: flag text, or
#: a JSON value that the kind's converter takes without loss (never true, false or null).
_SCALARS = {int: (str, int), float: (str, int, float), complex: (str, int, float), str: (str,)}


def _scalar(kind: type, value, key: str):
    try:
        if type(value) not in _SCALARS[kind]:
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ParseError(f"{key}: invalid {kind.__name__} value: {value!r}") from None


def _vector(kind: type, value, key: str) -> list:
    """Comma-separated text, a JSON list or one JSON entry, each entry a ``kind``
    scalar; a complex entry may also be an ``[re, im]`` pair of float scalars."""
    if type(value) is str:
        value = [token for token in value.split(",") if token.strip()]
    elif type(value) is not list:
        value = [value]
    return [complex(*(_scalar(float, part, key) for part in entry))
            if kind is complex and type(entry) is list and len(entry) == 2
            else _scalar(kind, entry, key) for entry in value]


@dataclasses.dataclass(frozen=True)
class _Param:
    """One parameter: config key ``key``, flag ``--key`` with dashes for underscores."""

    key: str
    kind: type  # int, float, complex or str: of the value, or of each entry of a vector
    help: str
    commands: tuple[str, ...] | None = None  # None: every command
    default: object = None  # None: absent, or derived in parse_config
    choices: tuple[str, ...] = ()
    dest: str = ""  # the RunConfig field, when it is not the key
    vector: bool = False  # comma-separated entries, or a JSON list

    @property
    def flag(self) -> str:
        return "--" + self.key.replace("_", "-")

    @property
    def field(self) -> str:
        return self.dest or self.key


_PSSQM = ("pssqm-solve", "pssqm-check", "bd-scan")

#: Every parameter, in the order the flags appear in each command's usage.
_PARAMS = (
    _Param("lambda", int, "cyclic order (>= 2)", dest="lam"),
    _Param("alpha", float, "comma-separated sector couplings, sum zero", vector=True),
    _Param("kappa", complex, "comma-separated complex couplings kappa_1..", vector=True),
    _Param("dim", int, "truncation dimension (default 12*lambda)"),
    _Param("tol", float, "residual tolerance"),
    _Param("seed", int, "RNG seed for sampling", default=42),
    _Param("out", str, "write the report to this path (atomic)"),
    _Param("format", str, "report format (csv and tsv: spectrum and bd-scan rows)",
           default="json", choices=("json", "csv", "tsv"), dest="fmt"),
    _Param("p", int, "parasupersymmetry order (lambda = p + 1)", _PSSQM),
    _Param("mu", int, "distinguished sector index", _PSSQM, default=0),
    _Param("eta", complex, "supercharge coefficients (comma-separated complex)", _PSSQM,
           vector=True),
    _Param("r", float, "override the solved sector shifts (comma-separated)",
           ("pssqm-check",), vector=True),
    _Param("samples", int, "check this many random admissible alpha draws instead",
           ("pssqm-check",)),
    _Param("variant", str, "which realization to check", ("ssqm",), default="both",
           choices=("unbroken", "broken", "both")),
    _Param("scan_from", float, "scan start", ("bd-scan",), default=-2.0),
    _Param("scan_to", float, "scan end", ("bd-scan",), default=0.0),
    _Param("scan_points", int, "grid points", ("bd-scan",), default=41),
    _Param("matrix", str, "a, adag, num, t, or p<i>", ("dump",), default="a"),
)

RunConfig = dataclasses.make_dataclass(
    "RunConfig",
    ["command", *(param.field for param in _PARAMS)],
    namespace={"__doc__": "Validated parameters of one CLI invocation."},
)


def _convert(param: _Param, value):
    """A flag's text or a config value, by the one rule of ``_SCALARS``, then the
    param's finiteness and choices; a vector's length and finiteness are the library's."""
    if param.vector:
        return _vector(param.kind, value, param.key)
    value = _scalar(param.kind, value, param.key)
    if param.kind is float and not math.isfinite(value):
        raise NonFiniteError(f"{param.key} must be finite, got {value!r}")
    if param.choices and value not in param.choices:
        raise ParseError(
            f"{param.key}: invalid choice: {value!r} "
            f"(choose from {', '.join(map(repr, param.choices))})"
        )
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clext",
        description="cyclic-group extended oscillator algebras: representations, "
        "relation verification, spectra, parasupersymmetry",
    )
    parser.add_argument("--version", action="version", version=f"clext {__version__}")

    def add_flag(container, param: _Param) -> None:
        help_text = param.help
        if param.choices:
            help_text += f"; one of {', '.join(param.choices)}"
        if param.default is not None:
            help_text += f" (default {param.default})"
        container.add_argument(param.flag, dest=param.field, help=help_text)

    # a flag that several commands take is built once, in a parent parser
    shared = {None: argparse.ArgumentParser(add_help=False),
              _PSSQM: argparse.ArgumentParser(add_help=False)}
    shared[None].add_argument("--config", help="JSON file supplying any of the flags")
    for param in _PARAMS:
        if param.commands in shared:
            add_flag(shared[param.commands], param)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, handler in _HANDLERS.items():
        parents = [group for commands, group in shared.items()
                   if commands is None or command in commands]
        cmd = sub.add_parser(command, parents=parents, help=handler.__doc__)
        for param in _PARAMS:
            if param.commands not in shared and command in param.commands:
                add_flag(cmd, param)
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
    unknown = set(data) - {"command", *(param.key for param in _PARAMS)}
    if unknown:
        raise ParseError(f"config file {path} has unknown keys: {sorted(unknown)}")
    return data


_VALUE_FLAGS = frozenset({"--config", *(param.flag for param in _PARAMS)})
_OPTIONS = _VALUE_FLAGS | {"-h", "--help", "--version"}


def _merge_flag_values(argv) -> list[str]:
    """Join each flag that takes a value with the next token, unless that
    token is itself an option, so that a value with a leading minus sign
    (``-1e-3``, ``-inf``, ``-1,2``) is not read as a flag by argparse."""
    merged = []
    for token in argv:
        if merged and merged[-1] in _VALUE_FLAGS and token.partition("=")[0] not in _OPTIONS:
            merged[-1] += "=" + token
        else:
            merged.append(token)
    return merged


def _held_bytes_per_entry(command: str) -> int:
    """Bytes that ``command`` holds at once per entry of a dim x dim matrix, at any lambda.

    pssqm-check: the ``MULTILINEAR_DENSE_WORDS`` dense words of khare_check's
    multilinear sum, two factors and their product, 96 bytes in long double complex.
    dump: one text line, almost always the 8 characters ``0.0,0.0\\n``, held
    at most three times (24 bytes per entry under tracemalloc): the text, its
    encoded bytes and a captured stream's buffer; a list slot and the text
    while it is joined.
    """
    if command == "pssqm-check":
        return MULTILINEAR_DENSE_WORDS * np.dtype(CHECK_DTYPE).itemsize
    return 3 * len("0.0,0.0\n")


def _held_bytes_per_row(command: str, lam: int, fmt: str) -> int:
    """Bytes that ``command`` keeps per report row until the report is written:
    the row, its cleaned copy, its JSON text and the encoded output.  Measured
    with tracemalloc, a bd-scan point took at most 1423 bytes, a pssqm-check
    sample, whose alpha has lam entries, about 1470 + 180 lam, and a spectrum
    level, the row of one state, at most 2942 bytes as JSON (whose indented
    encoder keeps every token) and 545 as csv or tsv, at lam 2, 3 and 64 and
    dims from 1e4 to 1e5 for JSON and to 350,000 for csv."""
    if command == "spectrum":
        return 3072 if fmt == "json" else 640
    return 1536 if command == "bd-scan" else 1536 + 192 * lam


def _cap(name: str, value: int, largest: int, command: str, lam: int, per: int,
         unit: str) -> None:
    """Reject ``value`` past ``largest``, the most that fits MAX_HELD_BYTES at
    ``per`` bytes a ``unit``, with an error that names ``largest``."""
    if value > largest:
        raise ValidationError(
            f"{name} must be at most {largest} for {command} at lambda {lam}, which holds up "
            f"to {per} bytes per {unit} within {MAX_HELD_BYTES >> 20} MiB, got {value}")


def parse_config(argv) -> RunConfig:
    """Parse argv (plus an optional config file) into a validated RunConfig.

    Every config value and flag value meets the same converter and choices;
    flags override file values.  The rules below are those that tie
    parameters together.
    """
    namespace = _build_parser().parse_args(_merge_flag_values(list(argv)))
    command = namespace.command
    file_values = _load_config_file(namespace.config) if namespace.config else {}
    if "command" in file_values and file_values["command"] != command:
        raise ValidationError(
            f"config file requests command {file_values['command']!r}; "
            f"invoked as {command!r}"
        )
    given = dict(file_values)
    for param in _PARAMS:
        if getattr(namespace, param.field, None) is not None:
            given[param.key] = getattr(namespace, param.field)
    values = {
        param.field: _convert(param, given[param.key]) if param.key in given else param.default
        for param in _PARAMS
    }
    lam, alpha, kappa, p = values["lam"], values["alpha"], values["kappa"], values["p"]

    if alpha is not None and kappa is not None:
        raise ValidationError("give either --alpha or --kappa, not both")

    if lam is None and p is not None:
        lam = p + 1
    if lam is None and alpha is not None:
        lam = len(alpha)
    if lam is None and kappa is not None:
        lam = len(kappa) + 1
    if lam is None and command == "bd-scan":
        lam = 3
    if lam is None:
        raise ValidationError("cyclic order unknown: give --lambda (or --alpha/--kappa/--p)")
    if lam < 2:
        raise ValidationError(f"lambda must be >= 2, got {lam}")
    if lam > MAX_LAMBDA:
        raise ValidationError(f"lambda capped at {MAX_LAMBDA} on the command line, got {lam}")

    if p is not None and p + 1 != lam:
        raise ValidationError(
            f"lambda must equal p + 1 (got lambda = {lam}, p = {p}); "
            f"set --lambda {p + 1} or drop one of the flags"
        )
    if command in _PSSQM and p is None:
        p = lam - 1
    if command == "bd-scan" and lam != 3:
        raise ValidationError(f"bd-scan runs at order p = 2 (lambda = 3), got lambda = {lam}")
    if command == "ssqm" and lam != 2:
        raise ValidationError(f"ssqm needs lambda = 2, got lambda = {lam}")

    samples = values["samples"]
    if samples is not None and samples < 1:
        raise ValidationError(f"samples must be >= 1, got {samples}")
    for key in ("alpha", "kappa", "r"):
        if samples is not None and values[key] is not None:
            raise ValidationError(
                f"--samples draws each alpha and solves its shifts: drop --{key}"
            )
    if alpha is None and kappa is None:
        if command == "bd-scan":
            alpha = [0.0, 0.0, 0.0]
        elif not (command == "pssqm-check" and samples is not None):
            raise ValidationError("no algebra parameters: give --alpha or --kappa")

    dim = values["dim"] if values["dim"] is not None else 12 * lam
    if dim < 1:
        raise ValidationError(f"dim must be >= 1, got {dim}")
    if command in ("pssqm-check", "dump"):
        per_entry = _held_bytes_per_entry(command)
        _cap("dim", dim, math.isqrt(MAX_HELD_BYTES // per_entry), command, lam, per_entry,
             "matrix entry")
    count_key = {"bd-scan": "scan_points", "pssqm-check": "samples",
                 "spectrum": "dim"}.get(command)
    if count_key and values[count_key] is not None:
        per_row = _held_bytes_per_row(command, lam, values["fmt"])
        _cap(count_key, values[count_key], MAX_HELD_BYTES // per_row, command, lam, per_row,
             "report row")
    tol = values["tol"] if values["tol"] is not None else DEFAULT_TOLS.get(command, DEFAULT_TOL)
    if tol < 0:
        raise ValidationError(f"tol must be >= 0, got {tol!r}")
    if values["fmt"] != "json" and command not in ("spectrum", "bd-scan"):
        raise ValidationError(
            f"format {values['fmt']!r} is only available for spectrum and bd-scan"
        )

    values.update(lam=lam, alpha=alpha, dim=dim, tol=tol, p=p)
    return RunConfig(command=command, **values)


def _build_spec(cfg: RunConfig) -> AlgebraSpec:
    if cfg.kappa is not None:
        return from_kappa(cfg.lam, cfg.kappa)
    return from_alpha(cfg.lam, cfg.alpha)


def _round15(value: float) -> float:
    return float(format(value, ".15g"))


def _clean(obj):
    """Normalize a report tree for deterministic JSON output."""
    kind = type(obj)
    if kind is float:
        return _round15(obj)
    if kind is int or kind is str or kind is bool or obj is None:
        return obj
    if kind is dict:
        return {k: _clean(v) for k, v in obj.items()}
    if kind is list or kind is tuple:
        return [_clean(v) for v in obj]
    # numpy scalars and arrays, and subclasses of the types above
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
    """Replace ``path`` atomically as ``open(path, "w")`` would: through a symlink, same mode."""
    path = os.path.realpath(path)
    try:
        mode = stat.S_IMODE(os.stat(path).st_mode)
    except FileNotFoundError:
        os.umask(umask := os.umask(0))  # the umask is read only by setting it
        mode = 0o666 & ~umask
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=".clext-tmp-")
    except OSError as exc:
        exc.filename = path  # the error names the report, not its random temporary name
        raise
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            os.fchmod(fh.fileno(), mode)
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(cfg: RunConfig, text: str, summary_lines, passed=True, written="report") -> int:
    """Write text to stdout, or to ``--out`` with the summary lines on stdout;
    return the exit code, 0 when every emitted pass flag is true."""
    if cfg.out:
        _write_atomic(cfg.out, text)
        for line in summary_lines:
            print(line)
        print(f"{written} written to {cfg.out}")
    else:
        sys.stdout.write(text)
    return 0 if passed else 1


def _rows(cfg: RunConfig, header_row, data_rows) -> str:
    """The csv or tsv table of the rows, an empty cell for each None."""
    sep = "," if cfg.fmt == "csv" else "\t"
    lines = [sep.join(header_row)]
    for row in data_rows:
        lines.append(sep.join("" if v is None else str(_clean(v)) for v in row))
    return "\n".join(lines) + "\n"


def _report(cfg: RunConfig, spec: AlgebraSpec | None, body: dict) -> str:
    """The JSON document of the header and the body."""
    header = {
        "command": cfg.command,
        "version": __version__,
        "lambda": cfg.lam,
        "alpha": spec.alpha if spec is not None else None,
        "kappa": spec.kappa if spec is not None else None,
        "dim": cfg.dim,
        "tol": cfg.tol,
        "seed": cfg.seed,
    }
    return json.dumps(_clean({"header": header, "body": body}), indent=2) + "\n"


def _cmd_verify(cfg: RunConfig) -> int:
    """check all defining relations"""
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
    return _emit(cfg, _report(cfg, spec, body), summary, body["all_pass"])


def _cmd_spectrum(cfg: RunConfig) -> int:
    """oscillator levels and clusters"""
    spec = _build_spec(cfg)
    rep = build_fock_rep(spec, cfg.dim)
    report = spectrum_report(rep)
    if cfg.fmt == "json":
        text = _report(cfg, spec, report.to_dict())
    else:
        text = _rows(cfg, ["n", "energy", "sector"], report.levels)
    summary = [
        f"n={n:<4d} sector={sector}  E={energy:.12g}" for n, energy, sector in report.levels[:8]
    ]
    if len(report.levels) > 8:
        summary.append(f"... {len(report.levels)} levels, "
                       f"{len(report.clusters)} clusters")
    return _emit(cfg, text, summary)


def _cmd_classify(cfg: RunConfig) -> int:
    """which Fock representation exists"""
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
    return _emit(cfg, _report(cfg, spec, body), summary)


def _cmd_pssqm_solve(cfg: RunConfig) -> int:
    """solve the sector-shift chain"""
    spec = _build_spec(cfg)
    config = solve_config(spec, cfg.mu, cfg.eta)
    body = {
        "p": config.p,
        "mu": cfg.mu,
        "eta": config.eta,
        "eta_norm_sq": (np.abs(config.eta) ** 2).sum(),
        "r": config.r,
        "ground_energy": ground_energy(spec, cfg.mu, cfg.eta),
    }
    summary = [f"r = {config.r.tolist()}", f"ground energy = {body['ground_energy']:.12g}"]
    return _emit(cfg, _report(cfg, spec, body), summary)


def _cmd_pssqm_check(cfg: RunConfig) -> int:
    """verify the order-p relations"""
    if cfg.samples is None:
        spec = _build_spec(cfg)
        run = solve_and_check(spec, cfg.mu, dim=cfg.dim, eta=cfg.eta, r=cfg.r, tol=cfg.tol)
        body = {
            "p": spec.lam - 1,
            "mu": cfg.mu,
            "eta": run.eta,
            "solved_r": run.solved_r,
            "used_r": run.used_r,
            "relations": run.report.to_dict(),
            "breaking": run.breaking.to_dict(),
            "pass": run.report.passed and run.breaking.matches_prediction,
        }
        rel = body["relations"]
        summary = [
            f"nilpotency    {rel['residual_nilpotency']:.3e}",
            f"commutator    {rel['residual_commutator']:.3e}",
            f"multilinear   {rel['residual_multilinear']:.3e}",
            f"breaking      {body['breaking']['breaking']} "
            f"(ground x{body['breaking']['ground_multiplicity']})",
            f"pass          {body['pass']}",
        ]
        return _emit(cfg, _report(cfg, spec, body), summary, body["pass"])

    rng = np.random.default_rng(cfg.seed)
    rows = []
    signs = {"positive": 0, "negative": 0, "null": 0}
    for _ in range(cfg.samples):
        alpha = sample_bfb_alpha(cfg.lam, rng)
        spec_i = from_alpha(cfg.lam, alpha)
        run = solve_and_check(spec_i, cfg.mu, dim=cfg.dim, eta=cfg.eta, tol=cfg.tol)
        energy = run.report.ground_energy
        if energy > NULL_ENERGY_TOL:
            signs["positive"] += 1
        elif energy < -NULL_ENERGY_TOL:
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
    return _emit(cfg, _report(cfg, None, body), summary, all_pass)


def _cmd_ssqm(cfg: RunConfig) -> int:
    """lam = 2 supersymmetry variants"""
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
    return _emit(cfg, _report(cfg, spec, body), summary, body["all_pass"])


def _cmd_bd_scan(cfg: RunConfig) -> int:
    """scan alpha_{mu+2} for the double-commutator variant"""
    spec = _build_spec(cfg)
    points = bd_scan(spec.alpha, cfg.mu, cfg.scan_from, cfg.scan_to, cfg.scan_points,
                     dim=cfg.dim, eta=cfg.eta, tol=cfg.tol)
    compatible = [pt.parameter for pt in points if pt.residual is not None and pt.residual <= cfg.tol]
    if cfg.fmt == "json":
        text = _report(cfg, spec, {
            "mu": cfg.mu,
            "scanned_component": (cfg.mu + 2) % 3,
            "rows": [pt.to_dict() for pt in points],
            "compatible_parameters": compatible,
        })
    else:
        text = _rows(cfg, ["parameter", "residual"], [[pt.parameter, pt.residual] for pt in points])
    summary = [f"{len(points)} points, compatible at {compatible}"]
    return _emit(cfg, text, summary)


def _cmd_dump(cfg: RunConfig) -> int:
    """write one generator matrix as text"""
    rep = build_fock_rep(_build_spec(cfg), cfg.dim)
    name = cfg.matrix.lower()
    # each generator is np.diag(diagonal, offset): a above the main one, adag below it
    diagonals = {"a": (1, rep.a[1:]), "adag": (-1, rep.adag[1:]), "num": (0, rep.num),
                 "t": (0, rep.T), **{f"p{mu}": (0, row) for mu, row in enumerate(rep.P)}}
    if name not in diagonals:
        raise ValidationError(f"unknown matrix {cfg.matrix!r}; choose from {sorted(diagonals)}")
    (offset, diagonal), dim = diagonals[name], rep.dim
    # column-major lines: each diagonal entry lies dim + 1 lines after the last
    lines = ["0.0,0.0\n"] * (dim * dim)
    lines[offset * dim if offset >= 0 else -offset :: dim + 1] = [
        f"{z.real!r},{z.imag!r}\n" for z in diagonal.astype(complex).tolist()]
    text = "".join(lines)
    del lines  # 8 bytes an entry, freed before the text is written
    return _emit(cfg, text, [], written=f"{name}: {dim}x{dim} column-major entries")


_HANDLERS = {
    "verify": _cmd_verify,
    "spectrum": _cmd_spectrum,
    "classify": _cmd_classify,
    "pssqm-solve": _cmd_pssqm_solve,
    "pssqm-check": _cmd_pssqm_check,
    "ssqm": _cmd_ssqm,
    "bd-scan": _cmd_bd_scan,
    "dump": _cmd_dump,
}


def run(cfg: RunConfig) -> int:
    """Execute a validated config; returns the process exit code."""
    return _HANDLERS[cfg.command](cfg)


def main(argv=None) -> int:
    try:
        # huge couplings overflow on the way to the finiteness checks, which
        # report them in one error line
        with np.errstate(over="ignore", invalid="ignore"):
            cfg = parse_config(sys.argv[1:] if argv is None else argv)
            return run(cfg)
    except (ClextError, ValueError) as exc:
        print(f"clext: error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"clext: i/o error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"clext: error: out of memory ({str(exc) or 'no detail'}); try a smaller --dim",
              file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
