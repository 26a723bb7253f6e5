"""Seeded synthetic generators and reproducible RNG substreams.

Every generator is a pure function of its config: the seed fully
determines the sample, and global NumPy RNG state is never touched.
Substreams are derived counter-style from (master seed, purpose tag,
indices), so parallel schedules can never reorder draws.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

import numpy as np

from .datamodel import Dataset, DomainError, _integer


def _purpose_words(purpose: str) -> list[int]:
    digest = hashlib.sha256(purpose.encode("utf-8")).digest()
    return [int.from_bytes(digest[k : k + 4], "little") for k in range(0, 16, 4)]


def derive_substream(master_seed: int, purpose: str, *indices: int) -> np.random.Generator:
    """Independent generator keyed by (master seed, purpose, indices).

    The key is hashed into the seed material, so substreams for
    different purposes or indices are decorrelated while remaining
    bit-reproducible across runs and platforms.  The seed and indices
    must be non-negative integers: a float or a bool is refused, not
    truncated.
    """
    seed = _integer(master_seed, "master seeds")
    clean = [_integer(ix, "substream indices") for ix in indices]
    if seed < 0:
        raise DomainError(f"master seed must be non-negative, got {seed}")
    for ix in clean:
        if ix < 0:
            raise DomainError(f"substream indices must be non-negative, got {ix}")
    ss = np.random.SeedSequence([seed, *_purpose_words(purpose), *clean])
    return np.random.default_rng(ss)


def stable_subseed(master_seed: int, purpose: str, *indices: int) -> int:
    """Collapse a substream key to a single u32, for config plumbing; the
    seed and indices must be integers, as for ``derive_substream``."""
    seed = _integer(master_seed, "master seeds")
    clean = [_integer(ix, "substream indices") for ix in indices]
    payload = ":".join([str(seed), purpose, *map(str, clean)])
    digest = hashlib.sha256(payload.encode("utf-8")).digest()
    return int.from_bytes(digest[:4], "little")


@dataclass(frozen=True)
class SparseLinearGen:
    """Gaussian design with s unit signal coefficients out of d.

    The first s coordinates of the coefficient vector are 1, the rest
    0, and the noise variance is s/nu so that nu is the signal-to-noise
    ratio ||beta||^2 / sigma^2.
    """

    n: int
    d: int
    s: int
    nu: float
    seed: int

    def __post_init__(self):
        for name in ("n", "d", "s"):
            _integer(getattr(self, name), f"generator {name} values")
        if self.n < 1:
            raise DomainError(f"need n >= 1, got {self.n}")
        if not 1 <= self.s <= self.d:
            raise DomainError(f"need 1 <= s <= d, got s={self.s}, d={self.d}")
        if not self.nu > 0:
            raise DomainError(f"need nu > 0, got {self.nu}")


@dataclass(frozen=True)
class SparseLinearTruth:
    beta: np.ndarray
    noise_var: float


def gen_sparse_linear(cfg: SparseLinearGen) -> tuple[Dataset, SparseLinearTruth]:
    """Draw a dataset with Z ~ N(0, I) rows and Y = Z beta + eps."""
    beta = np.zeros(cfg.d)
    beta[: cfg.s] = 1.0
    noise_var = 0.0 if math.isinf(cfg.nu) else cfg.s / cfg.nu
    rng = derive_substream(cfg.seed, "sparse-linear")
    features = rng.standard_normal((cfg.n, cfg.d))
    response = features @ beta
    if noise_var > 0:
        response = response + math.sqrt(noise_var) * rng.standard_normal(cfg.n)
    return Dataset(features, response), SparseLinearTruth(beta, noise_var)
