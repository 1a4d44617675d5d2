"""Parameter distributions: seeded sampling and exact mixed moments.

The random parameter process is a sequence of i.i.d. vectors whose
coordinates are mutually independent scalar random variables.  Each
supported scalar family carries closed-form raw moments up to degree 4,
which is exactly what second-degree products of degree-2 matrix entries
require.

Reproducibility policy
----------------------
All sampling goes through ``numpy.random.Generator`` instances backed by
the counter-based Philox bit generator (``philox-4x64-10``).  Every
stream comes from :func:`substream`: path or block ``i`` of a run seeded
``seed`` draws from the stream whose 128-bit Philox key is the pair
``(seed, i)``.  Distinct pairs give distinct keys, hence statistically
independent streams, so runs with different seeds share no substream;
the same key reproduces the same stream on every platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import StochLyapError, UnsupportedMoment

#: Highest supported total moment degree.  Matches the degree-2 cap on
#: polynomial matrix entries: a product of two entries has degree <= 4.
MAX_MOMENT_DEGREE = 4

_SEED_MASK = (1 << 64) - 1


def substream(seed: int, index: int) -> np.random.Generator:
    """Derive the independent substream keyed by the pair ``(seed, index)``.

    Both are taken modulo ``2^64``.
    """
    key = ((index & _SEED_MASK) << 64) | (seed & _SEED_MASK)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class Normal:
    """Normal distribution with mean ``mean`` and standard deviation ``stddev``."""

    mean: float
    stddev: float

    def __post_init__(self):
        if not self.stddev > 0:
            raise StochLyapError("Normal stddev must be positive")

    def raw_moment(self, p: int) -> float:
        # central moments 1, 0, s^2, 0, 3 s^4 shifted by the mean
        central = (1.0, 0.0, self.stddev**2, 0.0, 3.0 * self.stddev**4)
        return sum(
            math.comb(p, j) * self.mean ** (p - j) * central[j] for j in range(p + 1)
        )

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.normal(self.mean, self.stddev, size=size)

    def to_obj(self):
        return {"normal": {"mean": self.mean, "stddev": self.stddev}}


@dataclass(frozen=True)
class Uniform:
    """Continuous uniform distribution on the open interval (lo, hi)."""

    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo < self.hi:
            raise StochLyapError("Uniform requires lo < hi strictly")

    def raw_moment(self, p: int) -> float:
        return (self.hi ** (p + 1) - self.lo ** (p + 1)) / ((p + 1) * (self.hi - self.lo))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.uniform(self.lo, self.hi, size=size)

    def to_obj(self):
        return {"uniform": {"lo": self.lo, "hi": self.hi}}


@dataclass(frozen=True)
class Exponential:
    """Exponential distribution with rate ``rate`` (mean ``1/rate``)."""

    rate: float

    def __post_init__(self):
        if not self.rate > 0:
            raise StochLyapError("Exponential rate must be positive")

    def raw_moment(self, p: int) -> float:
        return math.factorial(p) / self.rate**p

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return rng.exponential(1.0 / self.rate, size=size)

    def to_obj(self):
        return {"exponential": {"rate": self.rate}}


@dataclass(frozen=True)
class Discrete:
    """Finite discrete distribution over ``values`` with probabilities ``probs``."""

    values: tuple
    probs: tuple

    def __post_init__(self):
        values = tuple(float(v) for v in self.values)
        probs = tuple(float(p) for p in self.probs)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "probs", probs)
        if len(values) != len(probs) or len(values) < 1:
            raise StochLyapError("Discrete needs matching values/probs of length >= 1")
        if any(p < 0 for p in probs):
            raise StochLyapError("Discrete probabilities must be nonnegative")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise StochLyapError("Discrete probabilities must sum to 1 within 1e-12")

    def raw_moment(self, p: int) -> float:
        return sum(w * v**p for v, w in zip(self.values, self.probs))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        # inverse-CDF lookup keeps the draw a single uniform per variate
        cum = np.cumsum(self.probs)
        cum[-1] = 1.0
        idx = np.searchsorted(cum, rng.random(size), side="right")
        return np.asarray(self.values)[np.minimum(idx, len(self.values) - 1)]

    def to_obj(self):
        return {"discrete": {"values": list(self.values), "probs": list(self.probs)}}


@dataclass(frozen=True)
class Constant:
    """Degenerate distribution concentrated at ``value``.

    Consumes no draws from the random stream.
    """

    value: float

    def raw_moment(self, p: int) -> float:
        return self.value**p

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        return np.full(size, self.value, dtype=float)

    def to_obj(self):
        return {"constant": {"value": self.value}}


#: Union of the supported scalar families.
ScalarDistribution = Normal | Uniform | Exponential | Discrete | Constant

_TAGS = {
    "normal": lambda o: Normal(o["mean"], o["stddev"]),
    "uniform": lambda o: Uniform(o["lo"], o["hi"]),
    "exponential": lambda o: Exponential(o["rate"]),
    "discrete": lambda o: Discrete(tuple(o["values"]), tuple(o["probs"])),
    "constant": lambda o: Constant(o["value"]),
}


def scalar_from_obj(obj: dict) -> ScalarDistribution:
    """Decode one scalar distribution from its tagged JSON object."""
    if len(obj) != 1:
        raise StochLyapError(f"expected a single distribution tag, got {sorted(obj)}")
    (tag, body), = obj.items()
    if tag not in _TAGS:
        raise StochLyapError(f"unknown distribution tag {tag!r}")
    return _TAGS[tag](body)


@dataclass(frozen=True)
class DistributionSpec:
    """Product distribution of ``Z`` mutually independent coordinates.

    Independence across coordinates is the only dependence structure
    supported; it is what makes every mixed moment a product of marginal
    moments.  All supported families have finite fourth moments, so the
    integrability assumption on squared matrix entries holds by
    construction.
    """

    coords: tuple

    def __post_init__(self):
        coords = tuple(self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 1:
            raise StochLyapError("DistributionSpec needs at least one coordinate")

    @property
    def Z(self) -> int:
        return len(self.coords)

    def sample_block(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` parameter vectors as a ``(count, Z)`` array.

        Draw order is coordinate-major: the full series for coordinate 0
        is drawn first, then coordinate 1, and so on, so the stream
        advance is fully determined by the spec and ``count``.
        """
        out = np.empty((count, self.Z))
        for i, c in enumerate(self.coords):
            out[:, i] = c.sample(rng, count)
        return out

    def moment(self, alpha) -> float:
        """Exact mixed moment of multi-index ``alpha``.

        Computes the expectation of the monomial with exponent vector
        ``alpha`` as the product of marginal raw moments, each in closed
        form.

        Parameters
        ----------
        alpha : sequence of int
            Nonnegative exponents, one per coordinate, with total degree
            at most :data:`MAX_MOMENT_DEGREE`.

        Returns
        -------
        float

        Raises
        ------
        UnsupportedMoment
            If the total degree exceeds the implemented cap.
        """
        alpha = tuple(int(a) for a in alpha)
        if len(alpha) != self.Z:
            raise StochLyapError(f"alpha length {len(alpha)} != Z = {self.Z}")
        if any(a < 0 for a in alpha):
            raise StochLyapError("alpha entries must be nonnegative")
        if sum(alpha) > MAX_MOMENT_DEGREE:
            raise UnsupportedMoment(
                f"total degree {sum(alpha)} exceeds cap {MAX_MOMENT_DEGREE}"
            )
        out = 1.0
        for c, a in zip(self.coords, alpha):
            if a:
                out *= c.raw_moment(a)
        return out

    def moment_table(self, degree: int) -> np.ndarray:
        """Raw moments ``E[xi_q^d]`` as a ``(Z, degree + 1)`` array.

        Column 0 is exactly 1.0, as in :meth:`moment`, which skips zero
        exponents: a :class:`Discrete` law's ``raw_moment(0)`` is
        ``sum(probs)``, which can miss 1 in the last bit.  Raises
        :class:`UnsupportedMoment` above :data:`MAX_MOMENT_DEGREE` and
        when a raw moment overflows or is not finite.
        """
        if degree > MAX_MOMENT_DEGREE:
            raise UnsupportedMoment(f"degree {degree} exceeds cap {MAX_MOMENT_DEGREE}")
        table = np.ones((self.Z, degree + 1))
        for q, c in enumerate(self.coords):
            try:
                table[q, 1:] = [c.raw_moment(d) for d in range(1, degree + 1)]
            except OverflowError:
                table[q, 1:] = np.inf
            if not np.isfinite(table[q]).all():
                raise UnsupportedMoment(
                    f"raw moments of coordinate {q} {c.to_obj()} up to degree {degree} "
                    "overflow or are not finite"
                )
        return table

    def to_obj(self):
        return {"coords": [c.to_obj() for c in self.coords]}

    @staticmethod
    def from_obj(obj: dict) -> "DistributionSpec":
        return DistributionSpec(tuple(scalar_from_obj(c) for c in obj["coords"]))

