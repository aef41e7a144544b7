"""Logit-adjustment noise distributions (§3.2 and Table 4 of the paper).

Keyformer regularizes the unnormalized attention logits with additive noise
``y_i = x_i + ζ_i`` before computing its score function.  The paper motivates
the Gumbel distribution (skewed, models maxima, biases towards initial
tokens) and ablates against a Gaussian with matched moments, a constant
adjustment, and no adjustment at all (which recovers H2O's behaviour).
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

__all__ = [
    "NoiseDistribution",
    "GumbelNoise",
    "GaussianNoise",
    "ConstantAdjustment",
    "NoAdjustment",
    "NOISE_DISTRIBUTIONS",
    "make_noise",
]

# Mean and standard deviation of the standard Gumbel(0, 1) distribution; the
# paper uses these to build a moment-matched Gaussian for the Table 4 ablation.
GUMBEL_MEAN = 0.5772156649015329  # Euler–Mascheroni constant
GUMBEL_STD = float(np.pi / np.sqrt(6.0))


class NoiseDistribution(ABC):
    """A source of per-token logit adjustments ζ."""

    name = "abstract"

    @abstractmethod
    def draw(self, out: np.ndarray, rng: np.random.Generator) -> None:
        """Fill ``out`` (C-contiguous float64) with the generator variates
        this distribution is built from — one per element, in C order."""

    @abstractmethod
    def finish(self, raw: np.ndarray) -> None:
        """Turn the variates of :meth:`draw` into adjustment values, in place.

        Elementwise, so it may be applied to any part (or copy of a part) of
        a draw: the prompt phase finishes only the columns a causal mask
        leaves visible, while the generator is still consumed for all.
        """

    def sample(self, size: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``size`` adjustment values."""
        out = np.empty(size)
        self.draw(out, rng)
        self.finish(out)
        return out

    def pdf(self, zeta: np.ndarray) -> np.ndarray:
        """Probability density of the adjustment values (used in analysis)."""
        raise NotImplementedError(f"{self.name} has no density")


class GumbelNoise(NoiseDistribution):
    """Standard (or shifted/scaled) Gumbel noise — Keyformer's default (Eq. 5)."""

    name = "gumbel"

    def __init__(self, mu: float = GUMBEL_MEAN, sigma: float = GUMBEL_STD):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        # Convert the requested mean/std into Gumbel location/scale parameters.
        self.sigma = sigma
        self.beta = sigma / GUMBEL_STD
        self.mu_loc = mu - self.beta * GUMBEL_MEAN
        self.mu = mu

    def draw(self, out, rng) -> None:
        rng.random(out=out)

    def finish(self, raw) -> None:
        # ``mu_loc - beta * log(-log(u))`` with ``u = rng.uniform(low, high)``
        # spelled out — the same ``low + (high - low) * random()`` per element
        # — as a block fill and in-place ufuncs instead of ``uniform``'s
        # per-element loop and four temporaries.
        low, high = 1e-12, 1.0 - 1e-12
        raw *= high - low
        raw += low
        np.log(raw, out=raw)
        np.negative(raw, out=raw)
        np.log(raw, out=raw)
        raw *= self.beta
        np.subtract(self.mu_loc, raw, out=raw)

    def pdf(self, zeta: np.ndarray) -> np.ndarray:
        z = (np.asarray(zeta, dtype=np.float64) - self.mu_loc) / self.beta
        return np.exp(-z - np.exp(-z)) / self.beta


class GaussianNoise(NoiseDistribution):
    """Symmetric Gaussian noise with matched mean/variance (Eq. 11, Table 4)."""

    name = "gaussian"

    def __init__(self, mu: float = GUMBEL_MEAN, sigma: float = GUMBEL_STD):
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        self.mu = mu
        self.sigma = sigma

    def draw(self, out, rng) -> None:
        rng.standard_normal(out=out)

    def finish(self, raw) -> None:
        # ``rng.normal(mu, sigma)`` is ``mu + sigma * standard_normal()``.
        raw *= self.sigma
        raw += self.mu

    def pdf(self, zeta: np.ndarray) -> np.ndarray:
        z = np.asarray(zeta, dtype=np.float64)
        return np.exp(-((z - self.mu) ** 2) / (2 * self.sigma**2)) / np.sqrt(
            2 * np.pi * self.sigma**2
        )


class ConstantAdjustment(NoiseDistribution):
    """Identical constant added to every logit (Table 4's ``c = 0.5772``)."""

    name = "constant"

    def __init__(self, value: float = GUMBEL_MEAN):
        self.value = value

    def draw(self, out, rng) -> None:
        pass

    def finish(self, raw) -> None:
        raw[...] = self.value


class NoAdjustment(ConstantAdjustment):
    """No logit adjustment — ``y_i = x_i`` as in H2O (Table 4's "None")."""

    name = "none"

    def __init__(self):
        super().__init__(0.0)


NOISE_DISTRIBUTIONS = ("gumbel", "gaussian", "constant", "none")


def make_noise(
    name: str, mu: float = GUMBEL_MEAN, sigma: float = GUMBEL_STD
) -> NoiseDistribution:
    """Factory for a noise distribution by name."""
    name = name.lower()
    if name == "gumbel":
        return GumbelNoise(mu, sigma)
    if name == "gaussian":
        return GaussianNoise(mu, sigma)
    if name == "constant":
        return ConstantAdjustment(mu)
    if name == "none":
        return NoAdjustment()
    raise KeyError(f"unknown noise distribution {name!r}; available: {NOISE_DISTRIBUTIONS}")
