"""Parasupersymmetry of order p on the cyclic algebra of order lam = p + 1.

The parasupercharge couples the raising operator to every grading sector
except a distinguished one:

    Q = sum_{nu=1..p} eta_{mu+nu} adag P_{mu+nu},

so Q annihilates sector mu and raises every other sector by one.  Order-p
parasupersymmetry requires

    Q^{p+1} = 0 with Q^n != 0 for n <= p,
    [H, Q] = 0,
    Q^p Qd + Q^{p-1} Qd Q + ... + Qd Q^p = 2p Q^{p-1} H,

with H the oscillator Hamiltonian shifted per sector.  Commutation with Q
fixes the shift differences through the recursion

    r_{mu+nu} = 2 + alpha_{mu+nu} + alpha_{mu+nu+1} + r_{mu+nu+1},  nu = 1..p,

and the multilinear relation holds on every Fock state iff the coefficient
norms satisfy sum |eta|^2 = 2p together with one linear condition that
pins r_{mu+2} (and with it the whole chain).  :func:`solve_r` implements
that chain; :func:`khare_check` decides each relation state by state on the
truncation interior.  Q is a weighted shift, its +1 band q[n] = <n|Q|n-1>,
and Q^n is the +n band of products of n consecutive q entries, so
Q^{p+1} = 0, the nonvanishing of Q^n and [H, Q] = 0 are O(p dim) band
arithmetic, and no dense matrix crosses the interface.  Only the multilinear
sum still multiplies dense words: 2p products, each factor formed from its band
and each product cut to its one band at once, so at most three are held.

The order-2 double-commutator variant ([Q, [Qd, Q]] = 2QH with Q^3 = 0) is
compatible with the same shifted Hamiltonian only where alpha_{mu+2} = -1;
:func:`beckers_debergh_check` and :func:`bd_scan` probe that obstruction, and
:func:`ssqm_check` the lam = 2 case, both as O(dim) band arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .algebra import (
    CONSTRAINT_TOL,
    AlgebraSpec,
    _first_inadmissible,
    admits_bfb,
    breaks_constraint,
    energy_values,
    from_alpha,
    require_finite,
    sample_bfb_alpha,
    structure_values,
)
from .errors import (
    EtaNormViolationError,
    NotBoundedFromBelowError,
    OrderMismatchError,
    WrongLambdaError,
    WrongOrderError,
)
from .fock import (  # RELATIVE_TOL is also public as clext.pssqm.RELATIVE_TOL
    RELATIVE_TOL, TruncatedFockRep, build_fock_rep, lower_shift, per_state_rule, upper_shift)
from .spectrum import Cluster, degeneracy_profile, report_dict, shifted_hamiltonian

DEFAULT_PSSQM_TOL = 1e-10
DEFAULT_SSQM_TOL = 1e-13

#: Matrix precision for relation checks.  Words of length p+1 at the
#: default truncation reach entry magnitudes around 1e5, where plain double
#: quantization of the square roots alone costs ~1e-10 absolute residual;
#: extended precision keeps the checks well inside their tolerance.
CHECK_DTYPE = np.clongdouble

#: Most dense dim x dim words :func:`khare_check` holds at once, in the charge's dtype:
#: the two factors of one product and the product, whose band is all the sum keeps.
MULTILINEAR_DENSE_WORDS = 3


def default_eta(p: int) -> np.ndarray:
    """Supercharge coefficients with |eta|^2 = 2 in every sector.

    Entry k couples sector mu + 1 + k (mod p+1) for whichever sector mu is
    distinguished; the values do not depend on it, and the norm condition
    sum |eta|^2 = 2p holds exactly.
    """
    if p < 1:
        raise ValueError(f"order must be >= 1, got {p}")
    eta = np.empty(p, dtype=complex)
    eta.fill(math.sqrt(2.0))  # np.full, without its wrapper
    return eta


def _normalized_eta(lam: int, eta) -> np.ndarray:
    p = lam - 1
    if eta is None:
        return default_eta(p)
    eta = np.asarray(eta, dtype=complex)
    if eta.shape != (p,):
        raise OrderMismatchError(f"eta must have p = lam - 1 = {p} entries, got {eta.shape}")
    require_finite("eta", eta)
    if np.any(np.abs(eta) == 0):
        raise ValueError("eta entries must be nonzero")
    return eta


def _check_mu(mu: int, lam: int) -> None:
    """The annihilated sector mu must be one of the lam sectors."""
    if not 0 <= mu < lam:
        raise ValueError(f"mu must lie in 0..{lam - 1}, got {mu}")


def _eta_norms(p: int, eta: np.ndarray) -> np.ndarray:
    """|eta|^2 of the p normalized coefficients, which must satisfy sum |eta|^2 = 2p."""
    with np.errstate(over="ignore"):  # an infinite total fails the condition below
        norms = np.abs(eta) ** 2
    total = float(np.add.reduce(norms))  # norms.sum(), without its wrapper
    if abs(total - 2 * p) > CONSTRAINT_TOL:
        raise EtaNormViolationError(f"sum |eta|^2 must equal 2p = {2 * p}, got {total!r}")
    return norms


def solve_r(spec: AlgebraSpec, mu: int, eta=None) -> np.ndarray:
    """Sector shifts making the shifted Hamiltonian parasupersymmetric.

    The multilinear relation fixes

        r_{mu+2} = (1/p) sum_{nu=1..p-1} |eta_{mu+nu+1}|^2
                   (nu + sum_{rho=0..nu-1} alpha_{mu+rho+2}) - 1 - alpha_{mu+2},

    after which the commutation recursion propagates one step down to
    r_{mu+1} and up through r_{mu+3} .. r_{mu+p}, closing the cycle at
    r_mu.  Only |eta|^2 enters, so coefficient phases never matter.

    Returns the shifts indexed by absolute sector 0 .. lam-1.  Requires a
    bounded-from-below spec, eta of length p = lam - 1, and the norm
    condition sum |eta|^2 = 2p.
    """
    lam = spec.lam
    p = lam - 1
    _check_mu(mu, lam)
    norms = _eta_norms(p, _normalized_eta(lam, eta)).tolist()  # [nu - 1]: |eta_{mu+nu}|^2
    if _first_inadmissible(spec._witnesses) is not None:  # classify, without its RepClass
        raise NotBoundedFromBelowError(
            "sector shifts are defined on the bounded-from-below representation only")

    a = spec.alpha.tolist()
    a = a[mu:] + a[: mu + 1]  # a[k] = alpha_{mu+k}, k = 0 .. lam
    pinned = prefix = 0.0
    for nu in range(1, p):
        prefix += a[nu + 1]  # the running sum_{rho=0..nu-1} alpha_{mu+rho+2}
        pinned += norms[nu] * (nu + prefix)
    pinned = pinned / p - 1.0 - a[2]

    r = [pinned] * lam  # r[k] = r_{mu+k}; r[2 mod lam] keeps the pinned value
    r[1] = 2.0 + a[1] + a[2] + pinned
    current = pinned
    for nu in range(2, p + 1):
        current = current - 2.0 - a[nu] - a[nu + 1]
        r[(nu + 1) % lam] = current
    return np.array(r[lam - mu :] + r[: lam - mu])


@dataclass(frozen=True, eq=False)
class PssqmConfig:
    """A solved parasupersymmetric configuration: spec, sector, eta, shifts."""

    spec: AlgebraSpec
    mu: int
    eta: np.ndarray
    r: np.ndarray

    @property
    def p(self) -> int:
        return self.spec.lam - 1

    def __post_init__(self):
        lam = self.spec.lam
        _check_mu(self.mu, lam)
        object.__setattr__(self, "eta", _normalized_eta(lam, self.eta))
        object.__setattr__(self, "r", _given_r(self.r))
        if self.r.shape != (lam,):
            raise OrderMismatchError(f"r must have {lam} entries, got {self.r.shape}")
        _eta_norms(self.p, self.eta)
        above = np.arange(1, lam + 1) % lam
        alpha = self.spec.alpha
        gaps = self.r - (2.0 + alpha + alpha[above] + self.r[above])
        gaps[self.mu] = 0.0  # the recursion links every sector to the next but mu
        worst = float(np.abs(gaps).max())
        if breaks_constraint(worst, alpha, self.r):
            raise ValueError(f"sector shifts break the commutation recursion by {worst:.3e}")


def _given_r(r) -> np.ndarray:
    """Sector shifts given in place of the solved ones, as finite floats."""
    r = np.asarray(r, dtype=float)
    require_finite("r", r)
    return r


def solve_config(spec: AlgebraSpec, mu: int, eta=None) -> PssqmConfig:
    """Solve the shift chain and return the validated configuration."""
    return PssqmConfig(spec=spec, mu=mu, eta=eta, r=solve_r(spec, mu, eta))


def build_supercharge(rep: TruncatedFockRep, mu: int, eta=None) -> np.ndarray:
    """Parasupercharge Q = sum_nu eta_{mu+nu} adag P_{mu+nu} as its +1 band q[n] = <n|Q|n-1>
    = w[(n-1) mod lam] adag[n], with q[0] = 0 and the sector weight w = eta_{mu+nu} on
    sector mu + nu and 0 on sector mu: zero on sector mu, every other raised by one."""
    lam = rep.spec.lam
    _check_mu(mu, lam)
    weights = np.zeros(lam, dtype=complex)
    weights[(mu + np.arange(1, lam)) % lam] = _normalized_eta(lam, eta)
    return rep.adag * weights[(np.arange(rep.dim) - 1) % lam]


@dataclass(frozen=True)
class PssqmReport:
    """Interior residuals of the order-p relations, absolute and per-state relative."""

    order: int
    residual_nilpotency: float
    nonvanishing_witness: float
    residual_commutator: float
    residual_multilinear: float
    relative_commutator: float
    relative_multilinear: float
    breaking: str
    ground_energy: float
    ground_multiplicity: int
    tolerance: float
    passed: bool

    to_dict = report_dict


def _complete_levels(energies, lam: int) -> list[Cluster]:
    """Clusters of the levels every sector's progression reaches in the truncation:
    energies rise by lam a step in a sector, so those up to the cluster of the lowest
    top kept state of a sector, min(energies[dim - lam:]).  ValueError below dim 2 lam,
    the least at which the ground (states 0 .. mu) and first excited multiplets are
    complete for every mu, and when float64 puts a top state in the ground cluster."""
    values = np.asarray(energies, dtype=float)
    dim = len(values)
    if dim < 2 * lam:
        raise ValueError(f"dim must be at least 2 lam = {2 * lam}, where the ground and the "
                         f"first excited multiplet are complete for every mu, got {dim}")
    clusters = degeneracy_profile(values)
    top = dim - lam + int(np.argmin(values[dim - lam:]))
    last = next(i for i, cluster in enumerate(clusters) if top in cluster.members)
    if last == 0:
        magnitude = float(np.max(np.abs(values)))
        where = "one cluster" if len(clusters) == 1 else f"{len(clusters)} clusters"
        raise ValueError(f"all {dim} energies fall in {where}: float64 cannot resolve their "
                         f"level spacing at magnitude {magnitude:.3g}, and no dim separates them")
    return clusters[: last + 1]


def _multilinear_lhs(bands: list, p: int) -> np.ndarray:
    """sum_k Q^(p-k) Qd Q^k, k = 0..p, as its one nonzero band, offset -(p - 1):
    entry n is column n.  The 2p dense products of :func:`khare_check`, each term
    (Q^(p-k) Qd) Q^k with no identity factor; each dense factor, Qd too, is formed
    from its band just before its product, and each product is cut to its band,
    which the sum adds in term order, so at most ``MULTILINEAR_DENSE_WORDS`` are
    held at once: two factors and their product."""

    def power(m):
        return np.diag(bands[m][m:], -m)

    def adjoint():
        return power(1).conj().T

    def band(word):
        return np.diagonal(word, -(p - 1))

    # the first term's band starts the sum: a zero start would turn its -0 into +0
    lhs = band(power(p) @ adjoint()).copy()
    for k in range(1, p):
        lhs += band(power(p - k) @ adjoint() @ power(k))
    lhs += band(adjoint() @ power(p))
    return lhs


def khare_check(
    rep: TruncatedFockRep,
    charge: np.ndarray,
    hamiltonian: np.ndarray,
    tol: float = DEFAULT_PSSQM_TOL,
) -> PssqmReport:
    """Residuals of the order-p relations for given Q and the energies of H.

    Checks Q^{p+1} = 0 (absolute) and [H, Q] = 0 on every state, the multilinear
    relation without the top state, where its Qd Q^p errs (the truncation rule
    of :mod:`clext.fock`), and the nonvanishing of Q^n for n <= p (the smallest
    max-entry, which must stay positive).  ``charge`` is the +1 band q of
    :func:`build_supercharge`, q[0] = 0 (else ValueError); ``hamiltonian`` holds
    the energies h of H.  [H, Q] at state n is q[n] (h(n) - h(n-1)), and column n
    of the multilinear relation prod_(j=1..p-1) q[n+j] (sum_k |q[n+k]|^2 - 2p h(n));
    each passes within ``tol`` or within RELATIVE_TOL of its scale, |q[n]|
    max(|h(n)|, |h(n-1)|, 1) and |prod| max(max_k |q[n+k]|^2, 2p max(|h(n)|, 1)).
    A nondegenerate ground of :func:`_complete_levels`, taken before any dense
    word, means unbroken.
    """
    p = rep.spec.lam - 1
    if charge.shape != (rep.dim,) or charge[0] != 0:
        raise ValueError(f"charge must be a band of {rep.dim} entries with charge[0] = 0, "
                         f"as no state lies below |0>; got shape {charge.shape}")
    ground = _complete_levels(np.real(hamiltonian), p + 1)[0]

    # bands[m][n] = <n|Q^m|n-m> = bands[m-1][n] q[n-m+1], the dense chain's
    # order of factors; bands[0] = 1 is Q^0
    bands = [np.ones_like(charge), charge]
    for m in range(2, p + 2):
        bands.append(bands[-1] * lower_shift(charge, m - 1))
    nilpotency, _, vanishes = per_state_rule(bands[p + 1], tol)
    # every entry of Q^n is a true matrix element: truncation only removes paths
    witness = min(float(np.abs(bands[n]).max()) for n in range(1, p + 1))

    below = lower_shift(hamiltonian)
    scale = np.abs(charge) * np.maximum(np.maximum(np.abs(hamiltonian), np.abs(below)), 1)
    commutator, relative_commutator, commutes = per_state_rule(
        hamiltonian * charge - charge * below, tol, scale)

    # column n of 2p Q^(p-1) H is 2p prod_(j=1..p-1) q[n+j] h(n), n = 0 .. dim - p
    product = bands[p - 1][p - 1:]
    multilinear = _multilinear_lhs(bands, p) - 2 * p * (product * hamiltonian[: rep.dim - p + 1])
    count = rep.dim - p  # without column dim - p, whose row is the top state
    norms = np.abs(charge) ** 2
    peak = reduce(np.maximum, (norms[k : k + count] for k in range(p + 1)))  # max_k |q[n+k]|^2
    product, energies = product[:count], np.abs(hamiltonian[:count])
    scale = np.abs(product) * np.maximum(peak, 2 * p * np.maximum(energies, 1))
    multilinear, relative_multilinear, holds = per_state_rule(multilinear[:count], tol, scale)

    return PssqmReport(
        order=p,
        residual_nilpotency=nilpotency,
        nonvanishing_witness=witness,
        residual_commutator=commutator,
        residual_multilinear=multilinear,
        relative_commutator=relative_commutator,
        relative_multilinear=relative_multilinear,
        breaking="unbroken" if ground.multiplicity == 1 else "broken",
        ground_energy=ground.energy,
        ground_multiplicity=ground.multiplicity,
        tolerance=tol,
        passed=vanishes and commutes and holds and witness > 0,
    )


@dataclass(frozen=True)
class BreakingReport:
    """Ground and excited degeneracy structure versus the sector prediction.

    The prediction (ground multiplicity mu + 1, unbroken exactly for
    mu = 0, excited multiplets of p + 1) is compared against the clustered
    spectrum, never assumed.
    """

    breaking: str
    ground_energy: float
    ground_multiplicity: int
    excited_multiplicities: tuple[int, ...]
    predicted_ground_multiplicity: int
    matches_prediction: bool

    to_dict = report_dict


def classify_breaking(h_diagonal, mu: int, p: int) -> BreakingReport:
    """Classify breaking from the complete levels (:func:`_complete_levels`) of the
    energies of a solved shifted Hamiltonian, the ground being the lowest of them."""
    _check_mu(mu, p + 1)
    clusters = _complete_levels(h_diagonal, p + 1)
    ground = clusters[0]
    excited = tuple(c.multiplicity for c in clusters[1:])
    breaking = "unbroken" if ground.multiplicity == 1 else "broken"
    matches = (
        ground.multiplicity == mu + 1  # so unbroken exactly for mu = 0
        and all(m == p + 1 for m in excited)
    )
    return BreakingReport(
        breaking=breaking,
        ground_energy=ground.energy,
        ground_multiplicity=ground.multiplicity,
        excited_multiplicities=excited,
        predicted_ground_multiplicity=mu + 1,
        matches_prediction=matches,
    )


@dataclass(frozen=True)
class KhareRun:
    """Bundle of one solved-and-checked parasupersymmetric configuration."""

    report: PssqmReport
    breaking: BreakingReport
    solved_r: np.ndarray
    used_r: np.ndarray
    eta: np.ndarray


def solve_and_check(
    spec: AlgebraSpec,
    mu: int,
    dim: int | None = None,
    eta=None,
    r=None,
    tol: float = DEFAULT_PSSQM_TOL,
) -> KhareRun:
    """Solve the shift chain, build Q and H, and run the full check.

    ``r`` overrides the solved shifts (useful as a negative control);
    ``dim`` defaults to 10 lam.
    """
    lam = spec.lam
    eta = _normalized_eta(lam, eta)
    solved = solve_r(spec, mu, eta)
    used = solved if r is None else _given_r(r)
    rep = build_fock_rep(spec, 10 * lam if dim is None else dim, dtype=CHECK_DTYPE)
    charge = build_supercharge(rep, mu, eta)
    hamiltonian = shifted_hamiltonian(rep, used)
    report = khare_check(rep, charge, hamiltonian, tol=tol)
    breaking = classify_breaking(hamiltonian, mu, lam - 1)
    return KhareRun(report=report, breaking=breaking, solved_r=solved, used_r=used, eta=eta)


def _sector_energies(spec: AlgebraSpec, mu: int, eta=None) -> np.ndarray:
    """E_nu + r_nu / 2, the solved energy of each sector nu's bottom state: affine in alpha."""
    return energy_values(spec, spec.lam) + solve_r(spec, mu, eta) / 2


def ground_energy(spec: AlgebraSpec, mu: int, eta=None) -> float:
    """Closed-form ground energy of the solved shifted Hamiltonian: the minimum of
    the lam sector-bottom energies, so concave and piecewise affine in alpha."""
    return np.minimum.reduce(_sector_energies(spec, mu, eta))


def sample_ground_energies(
    lam: int,
    mu: int,
    count: int = 100,
    rng: np.random.Generator | None = None,
    low: float = -0.9,
    high: float = 2.0,
):
    """Ground energies of ``count`` random bounded-from-below draws."""
    if rng is None:
        rng = np.random.default_rng(42)
    alphas = [sample_bfb_alpha(lam, rng, low, high) for _ in range(count)]
    energies = np.array([ground_energy(from_alpha(lam, a), mu) for a in alphas])
    return alphas, energies


def find_null_ground_alpha(
    lam: int,
    mu: int,
    rng: np.random.Generator,
    low: float = -0.9,
    high: float = 2.0,
    energy_tol: float = 1e-9,
    max_tries: int = 500,
) -> np.ndarray:
    """An alpha with solved ground energy E = 0: the first of at most ``max_tries`` draws
    with |E| <= ``energy_tol``, else the zero of E between the first negative and the first
    positive draw.  E is the minimum of sector-bottom energies affine in alpha, so on that
    segment it is concave and vanishes once, at the last root of a sector starting negative.
    RuntimeError if no such pair is drawn or that zero is inadmissible or not null."""
    found = {}  # the first draw of each sign of E, keyed by E > 0
    for _ in range(max_tries):
        alpha = sample_bfb_alpha(lam, rng, low, high)
        energies = _sector_energies(from_alpha(lam, alpha), mu)
        energy = np.minimum.reduce(energies)
        if abs(energy) <= energy_tol:
            return alpha
        found.setdefault(bool(energy > 0), (alpha, energies))
        if len(found) == 2:
            break
    else:
        raise RuntimeError("no null-ground alpha found; widen the sampling box")
    (negative, e0), (positive, e1) = found[False], found[True]
    crossing = max(a / (a - b) for a, b in zip(e0, e1) if a < 0)  # roots in (0, 1)
    candidate = (1 - crossing) * negative + crossing * positive
    candidate -= candidate.mean()  # restore exact sum zero after rounding
    if admits_bfb(candidate) and abs(ground_energy(from_alpha(lam, candidate), mu)) <= energy_tol:
        return candidate
    raise RuntimeError("the sector-energy crossing is not a null-ground alpha")


@dataclass(frozen=True)
class SsqmReport:
    """Residuals and spectrum of one lam = 2 supersymmetry variant."""

    variant: str
    residual_nilpotency: float
    residual_anticommutator: float
    residual_commutator: float
    relative_anticommutator: float
    ground_energy: float
    ground_multiplicity: int
    excited_multiplicities: tuple[int, ...]
    tolerance: float
    passed: bool

    to_dict = report_dict


def ssqm_check(rep: TruncatedFockRep, variant: str, tol: float = DEFAULT_SSQM_TOL) -> SsqmReport:
    """Check one of the two lam = 2 supersymmetry realizations, order-p
    parasupersymmetry at p = 1 with eta = 1.

    unbroken: Q = adag P_1, H = adag a P_0 + a adag P_1 (nondegenerate
    ground state, doubly degenerate excited states); broken: Q = adag P_0,
    H = a adag P_0 + adag a P_1 (every level doubly degenerate).  H is taken
    from the sector table, F(n) = <n|adag a|n> and F(n + 1) = <n|a adag|n>,
    not from the bands it checks, and the breaking report clusters it.
    Q^2, {Qd, Q} - H and [H, Q] are band arithmetic, O(dim).  {Qd, Q} - H is
    decided as in :func:`khare_check`, without the top state, where its Qd Q
    errs (:mod:`clext.fock`): state n passes within ``tol`` or within
    RELATIVE_TOL of max(|q[n]|^2, |q[n+1]|^2, |h(n)|, 1).  Q^2 vanishes by the
    sector weights and [H, Q] unless ``rep.P`` is tampered; both are absolute.
    """
    if rep.spec.lam != 2:
        raise WrongLambdaError(f"supersymmetry check needs lam = 2, got {rep.spec.lam}")
    if variant not in ("unbroken", "broken"):
        raise ValueError(f"variant must be 'unbroken' or 'broken', got {variant!r}")
    mu = 0 if variant == "unbroken" else 1  # the sector Q annihilates
    values = structure_values(rep.spec, rep.dim + 1, rep.a.real.dtype)
    hamiltonian = values[:-1] * rep.P[mu] + values[1:] * rep.P[1 - mu]
    breaking = classify_breaking(hamiltonian, mu, 1)
    q = build_supercharge(rep, mu, [1.0])
    nilpotency, _, vanishes = per_state_rule(q * lower_shift(q), tol)
    commutator, _, commutes = per_state_rule(hamiltonian * q - q * lower_shift(hamiltonian), tol)
    norms = np.abs(q) ** 2  # <n|Q Qd|n>, and the next state's is <n|Qd Q|n>
    above = upper_shift(norms)
    scale = reduce(np.maximum, (above, norms, np.abs(hamiltonian), 1))
    anticommutator, relative, holds = per_state_rule(above + norms - hamiltonian, tol, scale, 1)
    return SsqmReport(
        variant=variant,
        residual_nilpotency=nilpotency,
        residual_anticommutator=anticommutator,
        residual_commutator=commutator,
        relative_anticommutator=relative,
        ground_energy=breaking.ground_energy,
        ground_multiplicity=breaking.ground_multiplicity,
        excited_multiplicities=breaking.excited_multiplicities,
        tolerance=tol,
        passed=vanishes and commutes and holds,
    )


def _check_bd_dim(dim: int) -> None:
    """The double-commutator check needs dim >= lam + 1 = 4."""
    if dim < 4:
        raise ValueError(f"dim must be at least lam + 1 = 4, where the checked states read a "
                         f"nonzero charge entry for every mu, got {dim}")


@dataclass(frozen=True)
class BdReport:
    """Residual of the double-commutator variant for one configuration."""

    residual: float
    bd_compatible: bool
    tolerance: float

    to_dict = report_dict


def beckers_debergh_check(
    rep: TruncatedFockRep,
    mu: int,
    eta=None,
    r=None,
    tol: float = DEFAULT_PSSQM_TOL,
) -> BdReport:
    """Residual of [Q, [Qd, Q]] = 2 Q H at order p = 2.

    Uses the charge band and the solved shifted Hamiltonian of the order-2
    check (``r`` defaults to the solved chain); the residual is a band,
    O(dim), less its top state, where [Qd, Q] errs (:mod:`clext.fock`).
    The relation holds only where alpha_{mu+2} = -1.  Needs dim >= lam + 1 = 4,
    the least dim at which the checked states read a nonzero q for every mu.
    """
    if rep.spec.lam != 3:
        raise WrongOrderError(
            f"double-commutator variant is order 2 only (lam = 3), got lam = {rep.spec.lam}"
        )
    _check_bd_dim(rep.dim)
    shifts = solve_r(rep.spec, mu, eta) if r is None else _given_r(r)
    q = build_supercharge(rep, mu, eta)
    hamiltonian = shifted_hamiltonian(rep, shifts)
    q_up = upper_shift(q)
    inner = np.conj(q_up) * q_up - q * np.conj(q)  # the diagonal [Qd, Q]
    residual, _, compatible = per_state_rule(
        q * lower_shift(inner) - inner * q - 2.0 * (q * lower_shift(hamiltonian)), tol, margin=1)
    return BdReport(residual=residual, bd_compatible=compatible, tolerance=tol)


@dataclass(frozen=True)
class BdScanPoint:
    parameter: float
    residual: float | None
    bfb: bool

    to_dict = report_dict


def bd_scan(
    base_alpha,
    mu: int,
    start: float,
    stop: float,
    points: int,
    dim: int | None = None,
    eta=None,
    tol: float = DEFAULT_PSSQM_TOL,
) -> list[BdScanPoint]:
    """Scan alpha_{mu+2} and record the double-commutator residual.

    At each grid value t the scanned component is set to t and the other
    two components of ``base_alpha`` are shifted by a common constant to
    keep the zero sum.  Points without a bounded-from-below representation
    carry residual None.
    """
    _check_mu(mu, 3)
    base_alpha = np.asarray(base_alpha, dtype=float)
    if base_alpha.shape != (3,):
        raise WrongOrderError(f"scan needs a 3-component alpha, got {base_alpha.shape}")
    if points < 1:
        raise ValueError(f"points must be >= 1, got {points}")
    index = (mu + 2) % 3
    others = [i for i in range(3) if i != index]
    dim = 36 if dim is None else dim
    _check_bd_dim(dim)  # once, whether or not any point is bounded from below
    results = []
    for t in np.linspace(start, stop, points):
        alpha = base_alpha.copy()
        shift = (base_alpha[index] - t) / 2
        alpha[index] = t
        alpha[others] += shift
        residual = None
        if admits_bfb(alpha):
            rep = build_fock_rep(from_alpha(3, alpha), dim, dtype=CHECK_DTYPE)
            residual = beckers_debergh_check(rep, mu, eta=eta, tol=tol).residual
        results.append(BdScanPoint(float(t), residual, bfb=residual is not None))
    return results
