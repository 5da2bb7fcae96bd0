"""Closed-form distance bounds and their Monte-Carlo verification.

Every evaluator is a pure function of :class:`BoundParams`. Natural
logarithms throughout. A bound whose radicand or denominator is
non-positive carries no information; such values are flagged vacuous
and are never counted as passing.

Two of the published expressions are kept exactly as printed even
though they look like variants of each other: the intra ratio bound's
denominator uses sigma squared where the standalone post-projection
intra bound uses sigma times sigma_j, and the inter ratio bound's
denominator subtracts its spectral correction inside an already
subtracted parenthesis. Both sites are implemented verbatim.
"""

from __future__ import annotations

import dataclasses
import itertools
import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import InputError
from .linalg import (
    DataMatrix,
    centered_gram,
    fit_uncentered_pca,
    spectral_norm,
    top_eigenvalue,
)
from .metrics import ClusterPairTable, extra_pc_split, pair_compression
from .models import RandomVectorModel, generate_dataset, model_stats


@dataclass
class BoundParams:
    """Model-level quantities every bound is written in terms of.

    ``sigma`` is the largest per-coordinate noise standard deviation in
    the model, ``sigma_j[j]`` the per-cluster value, ``separations`` the
    matrix of center distances, and ``s_k`` the k-th singular value of
    the mean matrix (or of the data matrix when calibrating against an
    instance). ``C0`` is the spectral-norm calibration constant and
    ``c0`` the random-projection tail exponent.
    """

    d: int
    n: int
    k: int
    sigma: float
    sigma_j: np.ndarray
    separations: np.ndarray
    s_k: float
    C0: float = 1.0
    c0: float = 4.0

    def __post_init__(self):
        self.sigma_j = np.asarray(self.sigma_j, dtype=np.float64)
        self.separations = np.asarray(self.separations, dtype=np.float64)
        if self.d < 1 or self.n < 2 or self.k < 1:
            raise InputError("need d >= 1, n >= 2, k >= 1")
        if self.sigma < 0 or np.any(self.sigma_j < 0) or self.s_k < 0:
            raise InputError("noise levels and singular values must be nonnegative")
        if self.sigma_j.shape != (self.k,):
            raise InputError(f"sigma_j must have one entry per cluster, got {self.sigma_j.shape}")
        if self.separations.shape != (self.k, self.k):
            raise InputError("separations must be a k x k matrix")
        if self.C0 <= 0 or self.c0 <= 1:
            raise InputError("need C0 > 0 and c0 > 1")

    @property
    def sigma_condition_met(self) -> bool:
        """Whether sigma clears C0 log(n)/n, the stated noise floor."""
        return self.sigma >= self.C0 * math.log(self.n) / self.n

    @classmethod
    def from_model(cls, model: RandomVectorModel, C0: float = 1.0, c0: float = 4.0,
                   s_k: Optional[float] = None) -> "BoundParams":
        stats = model_stats(model)
        return cls(
            d=model.d,
            n=model.n,
            k=model.k,
            sigma=math.sqrt(stats.sigma_sq),
            sigma_j=np.sqrt(stats.sigma_j_sq),
            separations=stats.separations,
            s_k=stats.s_k if s_k is None else float(s_k),
            C0=C0,
            c0=c0,
        )


def _log_slack(params: BoundParams) -> float:
    # the 12 sqrt(d) log(n) concentration slack shared by both pre bounds
    return 12.0 * math.sqrt(params.d) * math.log(params.n)


def _projected_noise(params: BoundParams) -> float:
    # sqrt(k) (sigma + sqrt(16 log(nk)))
    return math.sqrt(params.k) * (
        params.sigma + math.sqrt(16.0 * math.log(params.n * params.k))
    )


def _check_cluster(params: BoundParams, j: int) -> None:
    if not 0 <= j < params.k:
        raise InputError(f"cluster index {j} outside [0, {params.k})")


def _check_pair(params: BoundParams, j: int, jp: int) -> None:
    _check_cluster(params, j)
    _check_cluster(params, jp)
    if j == jp:
        raise InputError("inter bound needs two distinct clusters")


def pre_pca_intra_lower(params: BoundParams, j: int) -> float:
    """Lower bound on original-space distance within cluster j.

    Returns 0 when the radicand is negative, which makes the bound
    vacuous (any distance clears it).
    """
    _check_cluster(params, j)
    radicand = 2.0 * params.d * params.sigma_j[j] ** 2 - _log_slack(params)
    return math.sqrt(radicand) if radicand > 0 else 0.0


def pre_pca_inter_upper(params: BoundParams, j: int, jp: int) -> float:
    """Upper bound on original-space distance between clusters j and jp."""
    _check_pair(params, j, jp)
    sep = params.separations[j, jp]
    return math.sqrt(
        params.d * (params.sigma_j[j] ** 2 + params.sigma_j[jp] ** 2)
        + sep**2
        + _log_slack(params)
    )


def _require_spectrum(params: BoundParams) -> None:
    if params.s_k <= 0:
        raise InputError("s_k must be positive for post-projection bounds")


def _inter_spectral(params: BoundParams, j: int, jp: int) -> float:
    """C0 sigma^2 sqrt(2 (d + n) (sep^2 + d (sigma_j^2 + sigma_jp^2))) / s_k."""
    sep = params.separations[j, jp]
    return (
        params.C0 * params.sigma**2
        * math.sqrt(
            2.0 * (params.d + params.n)
            * (sep**2 + params.d * (params.sigma_j[j] ** 2 + params.sigma_j[jp] ** 2))
        )
        / params.s_k
    )


def post_pca_intra_upper(params: BoundParams, j: int) -> float:
    """Upper bound on projected distance within cluster j."""
    _check_cluster(params, j)
    _require_spectrum(params)
    spectral = (
        params.C0 * params.sigma * params.sigma_j[j]
        * math.sqrt(params.d * (params.d + params.n)) / params.s_k
    )
    return 2.0 * math.sqrt(2.0) * (_projected_noise(params) + spectral)


def post_pca_inter_lower(params: BoundParams, j: int, jp: int) -> float:
    """Lower bound on projected distance between clusters j and jp.

    May come out non-positive; callers should then flag it vacuous.
    """
    _check_pair(params, j, jp)
    _require_spectrum(params)
    sep = params.separations[j, jp]
    return sep - 2.0 * _projected_noise(params) - 2.0 * _inter_spectral(params, j, jp)


def intra_ratio_lower(params: BoundParams, j: int) -> float:
    """Lower bound on the compression ratio of pairs inside cluster j.

    A value of 0 means the underlying distance bound is vacuous. The
    denominator deliberately carries sigma squared rather than
    sigma times sigma_j; see the module docstring.
    """
    _check_cluster(params, j)
    _require_spectrum(params)
    spectral = (
        params.C0 * params.sigma**2
        * math.sqrt(params.d * (params.d + params.n)) / params.s_k
    )
    denominator = 2.0 * math.sqrt(2.0) * (_projected_noise(params) + spectral)
    return pre_pca_intra_lower(params, j) / denominator


def inter_ratio_upper(params: BoundParams, j: int, jp: int) -> Optional[float]:
    """Upper bound on the compression ratio of pairs across j and jp.

    Returns None when the denominator is non-positive (vacuous). The
    spectral correction is subtracted inside the subtracted parenthesis,
    which raises the denominator; kept verbatim, see module docstring.
    """
    _check_pair(params, j, jp)
    _require_spectrum(params)
    sep = params.separations[j, jp]
    inner = sep - 2.0 * (_projected_noise(params) - _inter_spectral(params, j, jp))
    if inner <= 0:
        return None
    return pre_pca_inter_upper(params, j, jp) / (math.sqrt(2.0) * inner)


def random_projection_ub(kprime: int, sigma: float, n: int, c0: float = 4.0) -> float:
    """Bound on the projected norm of one noise vector.

    Holds with probability at least 1 - (n k')^(1 - c0) over draws of
    the noise and an independent projection.
    """
    if kprime < 1 or n < 1:
        raise InputError("need kprime >= 1 and n >= 1")
    if c0 <= 1:
        raise InputError("tail exponent c0 must exceed 1")
    return math.sqrt(kprime) * (sigma + math.sqrt(4.0 * c0 * math.log(n * kprime)))


@dataclass
class RandomProjectionCheck:
    bound: float
    violations: int
    trials: int
    predicted_rate: float

    @property
    def rate(self) -> float:
        return self.violations / self.trials


def random_projection_check(
    d: int,
    kprime: int,
    n: int,
    sigma: float,
    c0: float = 4.0,
    trials: int = 1000,
    seed: int = 0,
) -> RandomProjectionCheck:
    """Sample independent projections and noise, count bound violations.

    Noise coordinates are uniform with standard deviation sigma; the
    projection is a uniformly random orthonormal k'-frame in d
    dimensions, drawn fresh each trial.
    """
    if trials < 1:
        raise InputError("need at least one trial")
    bound = random_projection_ub(kprime, sigma, n, c0)
    rng = np.random.Generator(np.random.Philox(key=[seed, 0]))
    half_width = math.sqrt(3.0) * sigma
    violations = 0
    block = 500
    for start in range(0, trials, block):
        m = min(block, trials - start)
        gauss = rng.standard_normal((m, d, kprime))
        q, _ = np.linalg.qr(gauss)
        noise = rng.uniform(-half_width, half_width, size=(m, d))
        projected = np.einsum("tdk,td->tk", q, noise)
        norms = np.sqrt(np.einsum("tk,tk->t", projected, projected))
        violations += int(np.sum(norms > bound))
    predicted = (n * kprime) ** (1.0 - c0)
    return RandomProjectionCheck(bound, violations, trials, predicted)


def extra_pc_pair_bound(params: BoundParams, c: int, f: float) -> Tuple[float, float]:
    """Per-pair threshold shift and pair budget for extra components.

    Keeping c components beyond the model's k, the projected distance
    of an intra pair should stay below sqrt(lead^2 + shift) where
    ``lead`` is its distance under the first k components and ``shift``
    is the returned first value. At most ``budget`` intra pairs may
    exceed this.
    """
    if not 0.0 < f < 1.0:
        raise InputError(f"f must lie in (0, 1), got {f}")
    if c < 0:
        raise InputError("component surplus c must be nonnegative")
    shift = (params.C0 * params.sigma * f * c) ** 2 * (params.d + params.n)
    budget = c**2 / f**4
    return shift, budget


@dataclass
class ExtraPcCheck:
    exceedances: int
    budget: float
    intra_pairs: int
    threshold_shift: float
    worst_trailing_sq: float  # the largest intra pair's, beside threshold_shift


def extra_pc_check(
    model: RandomVectorModel,
    c: int,
    f: float,
    C0: float = 1.0,
    seed: int = 0,
) -> ExtraPcCheck:
    """Count intra pairs whose trailing components exceed the threshold."""
    params = BoundParams.from_model(model, C0=C0)
    shift, budget = extra_pc_pair_bound(params, c, f)
    A = generate_dataset(model, seed)
    P = fit_uncentered_pca(A, model.k + c)
    intra, exceed, worst = extra_pc_split(A, P, model.k, shift)
    return ExtraPcCheck(exceed, budget, intra, shift, worst)


# Largest estimated relative error, eps * max diag(Gc) / lambda_top, of
# the top eigenvalue of E^T E derived from the centered Gram matrix Gc.
# The derived entries carry an absolute error of a few eps * max diag(Gc),
# so above this share the noise block E is formed and its norm taken
# directly; at or below it the two agree to well within 1e-12.
NOISE_GRAM_RTOL = 1e-14


@dataclass
class NoiseNormCheck:
    """``source`` says where the estimate came from: ``gram`` (derived from
    the dataset's centered Gram matrix) or ``direct`` (the noise block)."""

    estimate: float
    bound: float
    passed: bool
    source: str


def noise_norm_check(model: RandomVectorModel, seed: int, C0: float = 1.0) -> NoiseNormCheck:
    """Spectral norm of one instance's noise block versus C0 sigma sqrt(d+n)."""
    A = generate_dataset(model, seed)
    return _noise_norm_check(model, A, C0, *centered_gram(A.values))


def _noise_norm_check(
    model: RandomVectorModel, A: DataMatrix, C0: float, G: np.ndarray, mean: np.ndarray
) -> NoiseNormCheck:
    """The check on A, given the centered Gram matrix G and mean column of ``A.values``.

    With the d x k centers C, the one-hot memberships Z and D = C - mean 1^T,
    the noise block is E = (A - mean 1^T) - D Z^T, so
    E^T E = G - H Z^T - Z H^T + Z (D^T D) Z^T with H = (A - mean 1^T)^T D:
    an O(dnk) product instead of a second d x n buffer and Gram product.
    """
    labels = model.labels()
    D = model.centers.T - mean[:, None]
    H = np.asarray(A.values.T @ D) - (mean @ D)[None, :]
    HZ = H[:, labels]
    noise_gram = G - HZ - HZ.T + (D.T @ D)[np.ix_(labels, labels)]
    top = top_eigenvalue(noise_gram)
    if top > 0 and np.finfo(float).eps * np.diag(G).max() <= NOISE_GRAM_RTOL * top:
        estimate, source = math.sqrt(top), "gram"
    else:
        # E = A - mean matrix, built in the mean matrix's own buffer so
        # the fallback holds only A and E
        E = model.mean_matrix()
        np.subtract(A.values, E, out=E)
        estimate, source = spectral_norm(E), "direct"
    bound = C0 * math.sqrt(model_stats(model).sigma_sq) * math.sqrt(model.d + model.n)
    return NoiseNormCheck(estimate, bound, estimate <= bound, source)


@dataclass
class C0Calibration:
    value: float
    ratios: np.ndarray  # per-seed ||E|| / (sigma sqrt(d+n))


def calibrate_c0(model: RandomVectorModel, seeds: Union[int, Sequence[int]] = 100) -> C0Calibration:
    """Smallest C0 for which the noise-norm check passes on every seed."""
    stats = model_stats(model)
    if stats.sigma_sq == 0:
        raise InputError("cannot calibrate C0 on a noiseless model")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise InputError("need at least one seed")
    ratios = []
    for seed in seed_list:
        check = noise_norm_check(model, seed, C0=1.0)
        ratios.append(check.estimate / check.bound)
    ratios = np.array(ratios)
    return C0Calibration(float(ratios.max() * (1.0 + 1e-9)), ratios)


@dataclass
class BoundRecord:
    """One bound's aggregate outcome over all verification seeds."""

    bound: str
    clusters: Tuple[int, ...]
    analytic: Optional[float]
    empirical: Optional[float]
    violations: int
    trials: int
    vacuous: bool

    def to_dict(self) -> dict:
        return {**dataclasses.asdict(self), "clusters": list(self.clusters)}


@dataclass
class BoundReport:
    """Every record, plus per seed the fit's SVD driver and residual and the noise norm's source."""

    records: List[BoundRecord]
    s_k_analytic: float
    s_k_empirical: float
    sigma_condition_met: bool
    trials: int = 0
    params: Optional[BoundParams] = field(default=None, repr=False)
    fit_drivers: List[str] = field(default_factory=list)
    fit_residuals: List[Optional[float]] = field(default_factory=list)
    noise_norm_sources: List[str] = field(default_factory=list)

    def record(self, bound: str, *clusters: int) -> BoundRecord:
        for rec in self.records:
            if rec.bound == bound and rec.clusters == clusters:
                return rec
        raise KeyError((bound, clusters))

    @property
    def total_violations(self) -> int:
        return sum(r.violations for r in self.records)

    def to_dict(self) -> dict:
        return {
            "s_k_analytic": self.s_k_analytic,
            "s_k_empirical": self.s_k_empirical,
            "sigma_condition_met": self.sigma_condition_met,
            "trials": self.trials,
            "fit_drivers": self.fit_drivers,
            "fit_residuals": self.fit_residuals,
            "noise_norm_sources": self.noise_norm_sources,
            "records": [r.to_dict() for r in self.records],
        }


class _Extremes:
    """Running worst-case tracker for one (bound, cluster-tuple) record."""

    def __init__(self, kind: str):
        self.kind = kind  # "lower": empirical min vs bound; "upper": max
        self.worst: Optional[float] = None
        self.violations = 0
        self.vacuous = False
        self.analytic: Optional[float] = None

    def update(self, analytic: Optional[float], empirical: Optional[float], vacuous: bool):
        self.analytic = analytic
        if vacuous:
            self.vacuous = True
        if empirical is None:
            return
        if self.worst is None:
            self.worst = empirical
        elif self.kind == "lower":
            self.worst = min(self.worst, empirical)
        else:
            self.worst = max(self.worst, empirical)
        if not vacuous and analytic is not None:
            if self.kind == "lower" and empirical < analytic:
                self.violations += 1
            if self.kind == "upper" and empirical > analytic:
                self.violations += 1


# Each pair bound: its name, function, the pair quantity it is checked on
# and its kind. A lower bound is checked against its cell's smallest
# value, an upper bound against its largest. Upper bounds are always
# positive, so an absent or non-positive bound is vacuous.
_INTRA_BOUNDS = (
    ("pre-intra-lower", pre_pca_intra_lower, "pre", "lower"),
    ("post-intra-upper", post_pca_intra_upper, "post", "upper"),
    ("intra-ratio-lower", intra_ratio_lower, "ratio", "lower"),
)
_INTER_BOUNDS = (
    ("pre-inter-upper", pre_pca_inter_upper, "pre", "upper"),
    ("post-inter-lower", post_pca_inter_lower, "post", "lower"),
    ("inter-ratio-upper", inter_ratio_upper, "ratio", "upper"),
)


def verify_bounds(
    model: RandomVectorModel,
    seeds: Union[int, Sequence[int]],
    kprime: Optional[int] = None,
    C0: float = 1.0,
    use_empirical_sk: bool = False,
) -> BoundReport:
    """Generate instances and test every closed-form bound against them.

    For each seed: generate the dataset, fit top-k' uncentered PCA,
    compute all pair distances, and compare each bound with the
    matching empirical extreme (worst pair); the noise-norm record
    checks the same dataset's noise block. The dataset's centered Gram
    matrix is formed once per seed, and the fit (when it is past the
    dense driver), the original pair distances and the noise norm all
    read it. ``kprime`` defaults to the model's k. With
    ``use_empirical_sk`` the bounds are re-evaluated per seed using the
    instance's own k-th singular value; the reported analytic value is
    then the last seed's.
    """
    k = model.k
    kprime = k if kprime is None else kprime
    if kprime < k:
        raise InputError("kprime below the model's cluster count leaves s_k unobserved")
    seed_list = list(range(seeds)) if isinstance(seeds, int) else list(seeds)
    if not seed_list:
        raise InputError("need at least one seed")

    base = BoundParams.from_model(model, C0=C0)
    # one tracker per record, with the bound and quantity it checks
    checks = []
    for j, jp in itertools.combinations_with_replacement(range(k), 2):
        clusters = (j,) if j == jp else (j, jp)
        for name, bound, quantity, kind in _INTRA_BOUNDS if j == jp else _INTER_BOUNDS:
            checks.append((name, clusters, bound, quantity, _Extremes(kind)))
    noise = _Extremes("upper")

    sk_empirical, drivers, residuals, sources = [], [], [], []
    for seed in seed_list:
        A = generate_dataset(model, seed)
        G, mean = centered_gram(A.values)
        P = fit_uncentered_pca(A, kprime, gram=(G, mean))
        drivers.append(P.driver)
        residuals.append(P.residual)
        sk_seed = float(P.singular_values[k - 1])
        sk_empirical.append(sk_seed)
        params = base
        if use_empirical_sk:
            params = BoundParams.from_model(model, C0=C0, s_k=sk_seed)
        table = ClusterPairTable(A.labels, extremes=True)
        pair_compression(A, P, gram=G, sinks=(table,))
        for _, clusters, bound, quantity, tracker in checks:
            cell = (clusters[0], clusters[-1])
            if not table.count[cell]:
                continue
            b = bound(params, *clusters)
            lower = tracker.kind == "lower"
            worst = float((table.min if lower else table.max)[quantity][cell])
            # a smallest ratio of +inf means the cell has no finite ratio
            empirical = None if lower and worst == np.inf else worst
            tracker.update(b, empirical, vacuous=b is None or b <= 0.0)
        check = _noise_norm_check(model, A, C0, G, mean)
        sources.append(check.source)
        noise.update(check.bound, check.estimate, vacuous=False)

    checks.append(("noise-norm", (), None, None, noise))
    records = [
        BoundRecord(
            bound=name,
            clusters=clusters,
            analytic=t.analytic,
            empirical=t.worst,
            violations=t.violations,
            trials=len(seed_list),
            vacuous=t.vacuous,
        )
        for name, clusters, _, _, t in checks
    ]
    return BoundReport(
        records=records,
        s_k_analytic=base.s_k,
        s_k_empirical=float(np.mean(sk_empirical)),
        sigma_condition_met=base.sigma_condition_met,
        trials=len(seed_list),
        params=base,
        fit_drivers=drivers,
        fit_residuals=residuals,
        noise_norm_sources=sources,
    )
