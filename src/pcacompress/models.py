"""Synthetic clustered datasets: centers plus coordinate-wise zero-mean noise.

Each datapoint is its cluster center plus an independent noise vector
whose coordinates are zero-mean and keep the entry inside [0, 1] by
construction (supports are constrained, never clipped, since clipping
would bias the mean). Three noise families cover the range from binary
data to smooth perturbations:

``bernoulli-residual``
    The entry itself is Bernoulli(center coordinate); the residual
    against the center has mean zero and variance c(1-c). This is the
    block-model special case and has no free parameter.

``uniform-symmetric``
    Uniform on [-a, a] with a at most min(c, 1-c); variance a^2/3.

``truncated-gaussian``
    A normal with base scale s truncated symmetrically to
    [-m, m], m = min(c, 1-c). Symmetric truncation keeps the mean at
    exactly zero; the variance has the standard closed form.

Generation draws every column from its own counter-based substream keyed
by (seed, column), so output is bit-identical no matter how generation
is ordered or parallelized. A model whose every cluster is
bernoulli-residual is drawn into one of the three storage kinds of
:mod:`~pcacompress.linalg`, bits: a bool d x n matrix at 1 byte per
entry, where float64 would take 8. Every primitive of ``linalg`` reads
it (its products in float64 blocks), and models that mix families are
drawn as float64.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from .errors import InputError
from .linalg import DataMatrix

NOISE_FAMILIES = ("bernoulli-residual", "uniform-symmetric", "truncated-gaussian")


@dataclass
class NoiseSpec:
    """Noise family plus its per-coordinate scale.

    ``scale`` may be a scalar (broadcast over coordinates) or a length-d
    array. The bernoulli-residual family takes no scale: its
    distribution is fixed by the center coordinates.
    """

    family: str
    scale: Union[None, float, np.ndarray] = None

    def __post_init__(self):
        if self.family not in NOISE_FAMILIES:
            raise InputError(f"unknown noise family {self.family!r}")
        if self.family == "bernoulli-residual":
            if self.scale is not None:
                raise InputError("bernoulli-residual noise takes no scale")
        else:
            if self.scale is None:
                raise InputError(f"{self.family} noise requires a scale")
            self.scale = np.asarray(self.scale, dtype=np.float64)
            if not np.all(np.isfinite(self.scale) & (self.scale >= 0)):
                raise InputError("noise scale must be finite and nonnegative")

    def scale_vector(self, d: int) -> Optional[np.ndarray]:
        if self.scale is None:
            return None
        return np.broadcast_to(self.scale, (d,)).astype(np.float64)

    def validate_support(self, center: np.ndarray) -> None:
        """Reject parameters that could push center + noise out of [0, 1]."""
        margin = np.minimum(center, 1.0 - center)
        if self.family == "bernoulli-residual":
            return  # entries land exactly on {0, 1}
        scale = self.scale_vector(len(center))
        if self.family == "uniform-symmetric":
            bad = scale > margin + 1e-15
            if np.any(bad):
                where = int(np.flatnonzero(bad)[0])
                raise InputError(
                    f"uniform noise scale {scale[where]:g} exceeds the [0,1] "
                    f"margin {margin[where]:g} at coordinate {where}"
                )
        # truncated-gaussian truncates to the margin itself, so any base
        # scale is support-safe

    def coordinate_variances(self, center: np.ndarray) -> np.ndarray:
        """Exact per-coordinate noise variance for this family at ``center``."""
        if self.family == "bernoulli-residual":
            return center * (1.0 - center)
        scale = self.scale_vector(len(center))
        if self.family == "uniform-symmetric":
            return scale**2 / 3.0
        margin = np.minimum(center, 1.0 - center)
        return _truncated_gaussian_variance(scale, margin)

    def sample(self, center: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        """One noisy datapoint (center + noise), entries in [0, 1]: bits for bernoulli-residual."""
        d = len(center)
        if self.family == "bernoulli-residual":
            return rng.random(d) < center
        scale = self.scale_vector(d)
        if self.family == "uniform-symmetric":
            return center + scale * (2.0 * rng.random(d) - 1.0)
        margin = np.minimum(center, 1.0 - center)
        return center + _truncated_gaussian_sample(scale, margin, rng.random(d))


def _truncated_gaussian_variance(scale, margin):
    # scipy.special is imported here, by the truncated-gaussian helpers
    # alone: at module level it adds some 4 MB and a tenth of a second to
    # every command that imports this module, most of which never use it
    from scipy.special import ndtr

    out = np.zeros_like(scale)
    live = (scale > 0) & (margin > 0)
    s, m = scale[live], margin[live]
    alpha = m / s
    # symmetric truncation: var = s^2 (1 - 2 alpha phi(alpha) / (2 Phi(alpha) - 1))
    phi = np.exp(-0.5 * alpha**2) / np.sqrt(2.0 * np.pi)
    mass = 2.0 * ndtr(alpha) - 1.0
    out[live] = s**2 * (1.0 - 2.0 * alpha * phi / mass)
    return out


def _truncated_gaussian_sample(scale, margin, uniforms):
    from scipy.special import ndtr, ndtri  # see _truncated_gaussian_variance

    out = np.zeros_like(scale)
    live = (scale > 0) & (margin > 0)
    s, m, u = scale[live], margin[live], uniforms[live]
    alpha = m / s
    lo = ndtr(-alpha)
    # keep the inverse-CDF argument strictly positive: when lo underflows
    # to zero a drawn u of exactly 0 would otherwise map to -inf
    v = np.maximum(lo + u * (1.0 - 2.0 * lo), np.finfo(np.float64).tiny)
    out[live] = s * ndtri(v)
    return out


@dataclass
class RandomVectorModel:
    """k cluster centers in [0,1]^d, per-cluster sizes and noise."""

    centers: np.ndarray  # (k, d)
    sizes: Sequence[int]
    noise: List[NoiseSpec]

    def __post_init__(self):
        self.centers = np.asarray(self.centers, dtype=np.float64)
        if self.centers.ndim != 2:
            raise InputError("centers must be a k x d array")
        # written so that a NaN entry fails too
        if not np.all((self.centers >= 0) & (self.centers <= 1)):
            raise InputError("center entries must lie in [0, 1]")
        self.sizes = [int(s) for s in self.sizes]
        if len(self.sizes) != self.k or any(s < 1 for s in self.sizes):
            raise InputError("need one positive size per cluster")
        if len(self.noise) != self.k:
            raise InputError("need one noise spec per cluster")
        for spec, center in zip(self.noise, self.centers):
            spec.validate_support(center)

    @property
    def k(self) -> int:
        return self.centers.shape[0]

    @property
    def d(self) -> int:
        return self.centers.shape[1]

    @property
    def n(self) -> int:
        return sum(self.sizes)

    def labels(self) -> np.ndarray:
        return np.repeat(np.arange(self.k, dtype=np.int32), self.sizes)

    def mean_matrix(self) -> np.ndarray:
        """The d x n matrix with every column replaced by its center."""
        return self.centers.T[:, self.labels()]

    def to_dict(self) -> dict:
        return {
            "centers": self.centers.tolist(),
            "sizes": list(self.sizes),
            "noise": [
                {
                    "family": spec.family,
                    "scale": None if spec.scale is None else np.asarray(spec.scale).tolist(),
                }
                for spec in self.noise
            ],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "RandomVectorModel":
        if not isinstance(doc, dict):
            raise InputError("model document must be a JSON object")
        if "sbm" in doc:
            block = doc["sbm"]
            if not isinstance(block, dict):
                raise InputError("sbm shorthand must be a JSON object")
            try:
                return sbm_rectangular(
                    int(block["d"]),
                    [int(s) for s in block["sizes"]],
                    float(block["p"]),
                    float(block["q"]),
                )
            except KeyError as missing:
                raise InputError(f"sbm shorthand missing field {missing}")
            except (TypeError, ValueError) as err:
                raise InputError(f"malformed model field: {err}")
        try:
            specs = doc["noise"]
            if not isinstance(specs, list) or not all(isinstance(x, dict) for x in specs):
                raise InputError("noise must be a list of JSON objects")
            noise = [NoiseSpec(spec["family"], spec.get("scale")) for spec in specs]
            return cls(np.asarray(doc["centers"]), doc["sizes"], noise)
        except KeyError as missing:
            raise InputError(f"model document missing field {missing}")
        except (TypeError, ValueError) as err:
            raise InputError(f"malformed model field: {err}")


def load_model(path) -> RandomVectorModel:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
    except json.JSONDecodeError as err:
        raise InputError(f"{path}: not valid JSON ({err})")
    except (OSError, UnicodeDecodeError) as err:
        raise InputError(f"cannot read model {path}: {err}")
    return RandomVectorModel.from_dict(doc)


def generate_dataset(model: RandomVectorModel, seed: int) -> DataMatrix:
    """Sample a labeled dataset; identical (model, seed) gives identical bytes.

    Column i draws from a Philox substream keyed (seed, i), so the result
    does not depend on generation order. A model whose every cluster is
    bernoulli-residual is drawn as bits (a bool matrix, 1 byte per
    entry); any other as float64.
    """
    labels = model.labels()
    bits = all(spec.family == "bernoulli-residual" for spec in model.noise)
    out = np.empty((model.d, model.n), dtype=bool if bits else np.float64, order="F")
    for col in range(model.n):
        cluster = labels[col]
        rng = np.random.Generator(np.random.Philox(key=[seed, col]))
        out[:, col] = model.noise[cluster].sample(model.centers[cluster], rng)
    return DataMatrix(out, labels=labels)


def sbm_rectangular(d: int, sizes: Sequence[int], p: float, q: float) -> RandomVectorModel:
    """Block-constant centers with binary noise.

    Center j takes value p on its own coordinate block and q elsewhere;
    coordinate blocks partition d proportionally to the cluster sizes.
    """
    if not 0 <= q < p <= 1:
        raise InputError(f"need 0 <= q < p <= 1, got p={p}, q={q}")
    sizes = [int(s) for s in sizes]
    if any(s < 1 for s in sizes):
        raise InputError("cluster sizes must be positive")
    k, n = len(sizes), sum(sizes)
    block_sizes = [d * s // n for s in sizes]
    shortfall = d - sum(block_sizes)
    for j in range(shortfall):
        block_sizes[j % k] += 1
    if any(b < 1 for b in block_sizes):
        raise InputError(f"d={d} too small to give every cluster a coordinate block")
    centers = np.full((k, d), q)
    edges = np.concatenate([[0], np.cumsum(block_sizes)])
    for j in range(k):
        centers[j, edges[j]:edges[j + 1]] = p
    noise = [NoiseSpec("bernoulli-residual") for _ in range(k)]
    return RandomVectorModel(centers, sizes, noise)


@dataclass
class ModelStats:
    """Exact analytic moments of a model, used by the bound evaluators.

    ``sigma_sq`` is the worst per-coordinate noise variance anywhere in
    the model; ``sigma_j_sq[j]`` is cluster j's per-coordinate variance
    averaged over coordinates.
    """

    sigma_sq: float
    sigma_j_sq: np.ndarray
    separations: np.ndarray  # (k, k) center distances
    mean_singular_values: np.ndarray  # of the mean matrix, descending

    @property
    def s_k(self) -> float:
        return float(self.mean_singular_values[-1])


def model_stats(model: RandomVectorModel) -> ModelStats:
    variances = np.stack(
        [
            spec.coordinate_variances(center)
            for spec, center in zip(model.noise, model.centers)
        ]
    )
    sigma_sq = float(variances.max()) if variances.size else 0.0
    sigma_j_sq = variances.mean(axis=1)
    diff = model.centers[:, None, :] - model.centers[None, :, :]
    separations = np.sqrt((diff**2).sum(axis=2))
    scaled = np.sqrt(np.asarray(model.sizes, dtype=np.float64))[:, None] * model.centers
    svals = np.linalg.svd(scaled, compute_uv=False)
    return ModelStats(sigma_sq, sigma_j_sq, separations, svals)


@dataclass
class RegimeReport:
    """Separation and spectrum ratios against the working-regime threshold."""

    separation_ratio: Optional[float]
    spectrum_ratio: float
    separation_ok: Optional[bool]
    spectrum_ok: bool
    threshold: float


def regime_check(stats: ModelStats, d: int, n: int, k: int, threshold: float = 5.0) -> RegimeReport:
    """Flag whether separations dwarf sqrt(k) and s_k dwarfs sqrt(d+n)."""
    if not 1 <= k <= len(stats.mean_singular_values):
        raise InputError(f"k={k} outside the model's {len(stats.mean_singular_values)} clusters")
    spectrum_ratio = float(stats.mean_singular_values[k - 1] / np.sqrt(d + n))
    if k < 2:
        separation_ratio, separation_ok = None, None
    else:
        off = stats.separations[~np.eye(k, dtype=bool)]
        separation_ratio = float(off.min() / np.sqrt(k))
        separation_ok = bool(separation_ratio >= threshold)
    return RegimeReport(
        separation_ratio=separation_ratio,
        spectrum_ratio=spectrum_ratio,
        separation_ok=separation_ok,
        spectrum_ok=bool(spectrum_ratio >= threshold),
        threshold=threshold,
    )
