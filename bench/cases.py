"""Seeded case lists for the three workloads, with expected verdicts.

Expected verdicts come from how each case is built, never from the code's own
tolerances: an admissible spec with solved sector shifts satisfies order-p
parasupersymmetry, tampered shifts do not, every defining relation holds on
a valid representation, and so on.

The (lam, dim, mu) structure of every list is fixed; the seed only draws the
couplings.  Dense cost does not depend on the coupling values, so runs with
different seeds do the same amount of work.

Some cases sit in regimes where the seed code gives a wrong verdict.  They
stay in the lists and carry a ``defect`` tag naming the failure they are
expected to show.  Such a case counts as failed when it fails in exactly
that way, and as fixed when it matches the oracle; any other failure, of a
tagged case or not, makes the run incorrect.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

import clext

WHY = {
    "pssqm-sweep": (
        "solve_and_check over lam 3..8 and every sector: dense clongdouble matmuls "
        "in pssqm dominate, verify is never called; weighted-shift rewrites of "
        "pssqm must show their gain here."
    ),
    "verify-sweep": (
        "build_fock_rep plus both verify calls over lam 2..24 and dims up to 600: "
        "complex128 BLAS matmuls and lam^2 dim^2 memory in verify, pssqm idle."
    ),
    "cli-mix": (
        "many cheap in-process clext.cli commands at default dims: per-call "
        "overhead in algebra, clustering, to_dict and JSON emission dominates, "
        "so added per-call set-up shows as a regression."
    ),
}

# Seed defects, reproduced on the seed code; see ROADMAP "Baseline".
ABS_TOL = "absolute tolerance below roundoff at this word scale (wrong FAIL)"
DROP_TOP = "default dim below the lam (p + 1) cluster cutoff (ValueError)"
MARGIN = "exact finite-dimensional rep rejected (MarginTooLargeError)"
H0_ASSERT = "runtime assert in hamiltonian_h0 at dim 600 (uncaught AssertionError)"
OOM = "dense lam^2 projector products exceed the memory guard"

#: The lam = 3 input that trips both the verify tolerance and the
#: hamiltonian_h0 assert at dim 600.
ALPHA_600 = (0.5972937831560854, -0.6577684290400543, 0.060474645883968836)
WORKED_ALPHA = (1.0, -0.5, -0.5)
WORKED_R = (-2.5, 1.0, 0.0)
FINITE_ALPHA = (-0.5, -1.5, 2.0)  # F(2) = 0: a 2-dimensional representation

GUARD_LAM, GUARD_DIM = 64, 768  # the CLI cap, at its default dim
MEMORY_GUARD, WALL_GUARD = "guard: memory limit", "guard: wall-clock limit"
RESIDUALS = ("nilpotency", "commutator", "multilinear")  # of PssqmReport
REL_TOL = 1e-9                  # for comparing reported energies and shifts
#: A residual of a correct operator identity is roundoff when it stays below
#: ROUNDOFF_REL times dim^((w + 1) / 2), for words of up to w ladder factors
#: (each of size up to sqrt(dim)) and one factor of headroom.  The seed's
#: wrong FAILs sit below 1e-14 dim^((w + 1) / 2); a wrong operator gives O(1).
ROUNDOFF_REL = 1e-13


@dataclass
class Case:
    kind: str                      # "pssqm", "verify", "guarded" or "cli"
    lam: int
    alpha: tuple = ()
    mu: int = 0
    dim: int | None = None
    r: tuple | None = None         # tampered sector shifts
    argv: tuple = ()
    expect: dict = field(default_factory=dict)
    defect: str | None = None


class CountingGenerator:
    """A numpy Generator that counts the draws made through it."""

    def __init__(self, rng: np.random.Generator):
        self.rng = rng
        self.draws = 0

    def uniform(self, *args, **kwargs):
        self.draws += 1
        return self.rng.uniform(*args, **kwargs)


# --- oracle arithmetic, from the definitions -------------------------------

def partial_sums(alpha) -> list[float]:
    beta = [0.0]
    for value in alpha[:-1]:
        beta.append(beta[-1] + value)
    return beta


def is_bfb(alpha) -> bool:
    beta = partial_sums(alpha)
    return all(m + beta[m] > 0 for m in range(1, len(alpha)))


def energy(alpha, n: int) -> float:
    lam = len(alpha)
    return n + 0.5 + partial_sums(alpha)[n % lam] + alpha[n % lam] / 2


def bd_alpha(base, mu: int, t: float) -> list[float]:
    """The bd-scan grid point: alpha_{mu+2} = t, the other two shifted equally."""
    alpha = np.array(base, dtype=float)
    index = (mu + 2) % 3
    others = [i for i in range(3) if i != index]
    shift = (alpha[index] - t) / 2
    alpha[index] = t
    alpha[others] += shift
    return [float(v) for v in alpha]


def close(a: float, b: float) -> bool:
    return abs(a - b) <= REL_TOL * max(1.0, abs(b))


def roundoff_bound(dim: int, word: int) -> float:
    return ROUNDOFF_REL * dim ** ((word + 1) / 2)


def shift_chain_holds(alpha, mu: int, r) -> bool:
    """[H, Q] = 0 fixes r_{mu+nu} - r_{mu+nu+1} = 2 + alpha_{mu+nu} + alpha_{mu+nu+1}."""
    lam = len(alpha)
    return all(
        close(r[(mu + nu) % lam] - r[(mu + nu + 1) % lam],
              2 + alpha[(mu + nu) % lam] + alpha[(mu + nu + 1) % lam])
        for nu in range(1, lam)
    )


# --- seeded inputs -----------------------------------------------------------

class Draws:
    def __init__(self, seed: int):
        self.rng = np.random.default_rng(seed)
        self.gen = CountingGenerator(self.rng)
        self.accepted = 0

    def bfb(self, lam: int) -> tuple:
        """An admissible alpha drawn by the library's sampler from our generator."""
        alpha = tuple(float(v) for v in clext.sample_bfb_alpha(lam, self.gen))
        self.accepted += 1
        if not is_bfb(alpha):
            raise AssertionError(f"sampler returned an inadmissible alpha {alpha}")
        return alpha

    def finite(self, lam: int, d: int) -> tuple:
        """Dyadic alpha with F(1..d-1) > 0 and F(d) = 0 exactly: a d-dim rep."""
        eighths = lambda lo, hi: self.rng.integers(lo, hi) / 8
        head = []
        for m in range(1, d):
            # keep F(m) = m + sum(head) >= 1/8
            head.append(eighths(max(1 - int(8 * (m + sum(head))), -12), 12))
        head.append(-d - sum(head))
        tail = [eighths(-8, 9) for _ in range(lam - d - 1)]
        return tuple(head + tail + [-(sum(head) + sum(tail))])

    def non_unitary(self, lam: int) -> tuple:
        """F(1) = 1 + alpha_0 < 0: no unitary Fock representation."""
        alpha = [-1.5 - self.rng.integers(0, 8) / 8]
        alpha += [self.rng.integers(-8, 9) / 8 for _ in range(lam - 2)]
        return tuple(alpha + [-sum(alpha)])


def _pssqm(cases, lam, alpha, mu, dim, defect=None, r=None):
    spec = clext.from_alpha(lam, alpha)
    expect = {"holds": r is None}
    if r is None:
        expect["ground_energy"] = clext.ground_energy(spec, mu)
    cases.append(Case("pssqm", lam, alpha, mu, dim, r=r, expect=expect, defect=defect))


def pssqm_sweep(draws: Draws) -> list[Case]:
    cases: list[Case] = []
    for lam in range(3, 9):
        for mu in range(lam):
            _pssqm(cases, lam, draws.bfb(lam), mu, 12 * lam, ABS_TOL if lam >= 6 else None)
    for lam in range(3, 9):  # the plain oscillator; p = 5..7 fail on the seed
        _pssqm(cases, lam, (0.0,) * lam, 0, 12 * lam, ABS_TOL if lam >= 6 else None)
    for lam, dim in ((3, 60), (3, 90), (3, 120), (4, 80), (4, 160), (5, 100), (5, 200)):
        _pssqm(cases, lam, draws.bfb(lam), 0, dim, ABS_TOL if lam == 5 else None)
    for lam, count in ((3, 8), (4, 5), (5, 1)):
        for _ in range(count):
            for mu in range(lam):
                _pssqm(cases, lam, draws.bfb(lam), mu, 12 * lam)
    for lam in (3, 4, 5):  # negative controls: one sector shift moved
        for mu in (0, lam - 1):
            alpha = draws.bfb(lam)
            r = list(clext.solve_r(clext.from_alpha(lam, alpha), mu))
            r[(mu + 1) % lam] += float(draws.rng.uniform(0.25, 1.0))
            _pssqm(cases, lam, alpha, mu, 12 * lam, r=tuple(r))
    _pssqm(cases, 3, WORKED_ALPHA, 0, None)
    cases[-1].expect["r"] = WORKED_R
    _pssqm(cases, 11, draws.bfb(11), 0, None, DROP_TOP)  # library default dim 10 lam
    return cases


def verify_sweep(draws: Draws) -> list[Case]:
    cases: list[Case] = []

    def add(lam, alpha, dim, defect=None):
        cases.append(Case("verify", lam, alpha, dim=dim, expect={"holds": True}, defect=defect))

    for lam, count in [(lam, 10) for lam in range(2, 9)] + [(lam, 3) for lam in range(9, 13)]:
        for _ in range(count):
            add(lam, draws.bfb(lam), 12 * lam)
    for lam in (14, 16, 20, 24):
        add(lam, draws.bfb(lam), 12 * lam)
    for lam, dim in ((2, 100), (2, 150), (3, 100), (3, 150), (4, 200), (6, 150)):
        add(lam, draws.bfb(lam), dim)
    for dim in (200, 400, 600):
        add(2, draws.bfb(2), dim, ABS_TOL)
    add(3, ALPHA_600, 600, ABS_TOL)
    for lam, d in ((4, 3), (5, 3), (6, 4), (6, 5)):
        add(lam, draws.finite(lam, d), d)
    add(3, FINITE_ALPHA, 2, MARGIN)
    cases.append(Case("guarded", GUARD_LAM, (0.0,) * GUARD_LAM, dim=GUARD_DIM,
                      expect={"holds": True}, defect=OOM))
    return cases


def _flag(values) -> str:
    return ",".join(repr(float(v)) for v in values)


def cli_mix(draws: Draws) -> list[Case]:
    cases: list[Case] = []

    def add(argv, lam, alpha=(), defect=None, mu=0, dim=None, **expect):
        expect.setdefault("exit", 0)
        cases.append(Case("cli", lam, tuple(alpha), mu, dim or 12 * lam, argv=tuple(argv),
                          expect=expect, defect=defect))

    for lam in range(2, 9):
        for _ in range(2):
            alpha = draws.bfb(lam)
            add(["classify", "--alpha", _flag(alpha)], lam, alpha, kind="bounded-from-below")
    for lam, d in ((3, 2), (4, 3), (5, 2), (6, 4)):
        alpha = draws.finite(lam, d)
        add(["classify", "--alpha", _flag(alpha)], lam, alpha, kind="finite-dimensional",
            rep_dim=d)
    for lam in (2, 3, 4):
        alpha = draws.non_unitary(lam)
        add(["classify", "--alpha", _flag(alpha)], lam, alpha, kind="non-unitary")

    for lam in range(3, 7):
        for _ in range(4):
            alpha, mu = draws.bfb(lam), int(draws.rng.integers(0, lam))
            spec = clext.from_alpha(lam, alpha)
            add(["pssqm-solve", "--mu", str(mu), "--alpha", _flag(alpha)], lam, alpha,
                mu=mu, ground_energy=clext.ground_energy(spec, mu))
    add(["pssqm-solve", "--alpha", _flag(WORKED_ALPHA)], 3, WORKED_ALPHA, mu=0,
        ground_energy=-0.25, r=WORKED_R)

    for lam in (2, 3, 4, 5):
        for _ in range(2):
            alpha, mu = draws.bfb(lam), int(draws.rng.integers(0, lam))
            spec = clext.from_alpha(lam, alpha)
            add(["pssqm-check", "--mu", str(mu), "--alpha", _flag(alpha)], lam, alpha,
                mu=mu, ground_energy=clext.ground_energy(spec, mu))
    for p in (1, 2, 3):
        seed = int(draws.rng.integers(0, 2**31))
        add(["pssqm-check", "--p", str(p), "--samples", "3", "--seed", str(seed)], p + 1,
            samples=3)
    for lam in (3, 4):
        alpha = draws.bfb(lam)
        r = list(clext.solve_r(clext.from_alpha(lam, alpha), 0))
        r[1] += float(draws.rng.uniform(0.25, 1.0))
        add(["pssqm-check", "--alpha", _flag(alpha), "--r", _flag(r)], lam, alpha, exit=1)
    add(["pssqm-check", "--p", "5", "--alpha", _flag((0.0,) * 6)], 6, (0.0,) * 6, ABS_TOL,
        mu=0, ground_energy=clext.ground_energy(clext.from_alpha(6, [0.0] * 6), 0))

    for _ in range(10):
        alpha = draws.bfb(2)
        add(["ssqm", "--alpha", _flag(alpha)], 2, alpha)

    for mu in range(3):
        for _ in range(2):
            alpha = draws.bfb(3)
            at_minus_one = bd_alpha(alpha, mu, -1.0)
            add(["bd-scan", "--mu", str(mu), "--alpha", _flag(alpha), "--scan-points", "9"],
                3, alpha, mu=mu, compatible=[-1.0] if is_bfb(at_minus_one) else [])

    for lam in range(2, 9):
        for _ in range(5):
            alpha = draws.bfb(lam)
            add(["spectrum", "--alpha", _flag(alpha), "--format", "csv"], lam, alpha)
    add(["spectrum", "--alpha", _flag(ALPHA_600), "--dim", "600", "--format", "csv"], 3,
        ALPHA_600, H0_ASSERT, dim=600)
    return cases


CASE_LISTS = {"pssqm-sweep": pssqm_sweep, "verify-sweep": verify_sweep, "cli-mix": cli_mix}


def build(workload: str, seed: int) -> tuple[list[Case], Draws]:
    draws = Draws(seed)
    cases = CASE_LISTS[workload](draws)
    # a seeded order spreads each group of similar cases over the whole pass,
    # so a slow spell of the machine does not land on one group
    return [cases[i] for i in draws.rng.permutation(len(cases))], draws


# --- verdict checks -----------------------------------------------------------

def verdict(case: Case, outcome: dict) -> str:
    """``pass`` when the outcome matches the oracle (``fixed`` if the case
    carries a defect tag), ``defect`` when it fails exactly as its tag says,
    ``wrong`` otherwise."""
    if holds(case, outcome):
        return "fixed" if case.defect else "pass"
    if case.defect and EXPECTED_FAILURE[case.defect](case, outcome):
        return "defect"
    return "wrong"


def holds(case: Case, outcome: dict) -> bool:
    """Whether an outcome matches the case's expected verdict."""
    if case.kind == "cli":
        return _check_cli(case, outcome)
    if "error" in outcome:
        return False
    if case.kind in ("verify", "guarded"):
        return not outcome["failed"]
    if not case.expect["holds"]:
        return not outcome["passed"]
    return outcome["passed"] and _pssqm_spectrum_holds(case, outcome)


def _pssqm_spectrum_holds(case: Case, outcome: dict) -> bool:
    """Breaking, multiplicities, ground energy and shifts, from the construction."""
    lam, mu, expect = case.lam, case.mu, case.expect
    return (
        outcome["breaking"] == ("unbroken" if mu == 0 else "broken")
        and outcome["ground_multiplicity"] == mu + 1
        and all(m == lam for m in outcome["excited"])
        and close(outcome["ground_energy"], expect["ground_energy"])
        and shift_chain_holds(case.alpha, mu, outcome["solved_r"])
        and ("r" not in expect or all(map(close, outcome["solved_r"], expect["r"])))
    )


def _abs_tol_failure(case: Case, outcome: dict) -> bool:
    """Only roundoff-sized residuals fail; every other verdict is right."""
    if case.kind == "verify":
        return "error" not in outcome and all(
            residual <= roundoff_bound(case.dim, 2) for _, residual in outcome["failed"]
        )
    bound = roundoff_bound(case.dim, case.lam)  # words of p + 1 = lam factors
    if case.kind == "pssqm":
        return (
            "error" not in outcome
            and not outcome["passed"]
            and max(outcome["residuals"]) <= bound
            and outcome["witness"] > 0
            and _pssqm_spectrum_holds(case, outcome)
        )
    if outcome["exit"] != 1 or case.argv[0] != "pssqm-check":
        return False
    body = json.loads(outcome["out"])["body"]
    relations, breaking = body["relations"], body["breaking"]
    return (
        not relations["pass"]
        and max(relations[f"residual_{name}"] for name in RESIDUALS) <= bound
        and relations["nonvanishing_witness"] > 0
        and breaking["matches_prediction"]
        and breaking["ground_multiplicity"] == case.mu + 1
        and close(breaking["ground_energy"], case.expect["ground_energy"])
    )


#: How each tagged case is expected to fail on the seed code.
EXPECTED_FAILURE = {
    ABS_TOL: _abs_tol_failure,
    DROP_TOP: lambda case, outcome: (
        outcome.get("error") == "ValueError" and outcome["message"].startswith("drop_top ")
    ),
    MARGIN: lambda case, outcome: outcome.get("error") == "MarginTooLargeError",
    H0_ASSERT: lambda case, outcome: (
        outcome["exit"] == 1 and outcome.get("uncaught") == ["AssertionError", "hamiltonian_h0"]
    ),
    OOM: lambda case, outcome: outcome.get("error") in (MEMORY_GUARD, WALL_GUARD),
}
def _check_cli(case: Case, outcome: dict) -> bool:
    expect = case.expect
    if outcome["exit"] != expect["exit"]:
        return False
    if expect["exit"] != 0:
        return True
    command, text = case.argv[0], outcome["out"]
    if command == "spectrum":
        rows = [line.split(",") for line in text.splitlines()[1:]]
        return len(rows) == case.dim and all(
            int(n) == i and int(sector) == i % case.lam
            and close(float(value), energy(case.alpha, i))
            for i, (n, value, sector) in enumerate(rows)
        )
    body = json.loads(text)["body"]
    if command == "classify":
        return body["kind"] == expect["kind"] and body["dim"] == expect.get("rep_dim")
    if command == "pssqm-solve":
        return (
            shift_chain_holds(case.alpha, case.mu, body["r"])
            and close(body["ground_energy"], expect["ground_energy"])
            and ("r" not in expect or all(map(close, body["r"], expect["r"])))
        )
    if command == "pssqm-check" and "samples" in expect:
        rows = body["rows"]
        return body["all_pass"] and len(rows) == expect["samples"] and all(
            is_bfb(row["alpha"])
            and close(row["ground_energy"],
                      clext.ground_energy(clext.from_alpha(case.lam, row["alpha"]), body["mu"]))
            for row in rows
        )
    if command == "pssqm-check":
        breaking = body["breaking"]
        return (
            body["pass"]
            and breaking["ground_multiplicity"] == case.mu + 1
            and close(breaking["ground_energy"], expect["ground_energy"])
        )
    if command == "ssqm":
        unbroken, broken = body["variants"]
        return (
            body["all_pass"]
            and unbroken["ground_multiplicity"] == 1 and close(unbroken["ground_energy"], 0.0)
            and broken["ground_multiplicity"] == 2
            and close(broken["ground_energy"], 1 + case.alpha[0])
            and all(m == 2 for m in unbroken["excited_multiplicities"]
                    + broken["excited_multiplicities"])
        )
    if command == "bd-scan":
        return body["compatible_parameters"] == expect["compatible"]
    raise ValueError(f"no check for command {command!r}")


def outcome_of_pssqm(run) -> dict:
    return {
        "passed": bool(run.report.passed),
        "residuals": [getattr(run.report, f"residual_{name}") for name in RESIDUALS],
        "witness": run.report.nonvanishing_witness,
        "breaking": run.breaking.breaking,
        "ground_energy": run.report.ground_energy,
        "ground_multiplicity": run.breaking.ground_multiplicity,
        "excited": list(run.breaking.excited_multiplicities),
        "solved_r": [float(v) for v in run.solved_r],
    }



def outcome_of_verify(*reports) -> dict:
    """The relations that failed, with their residuals."""
    return {"failed": [[entry.relation, entry.residual]
                       for report in reports for entry in report.entries if not entry.passed]}
