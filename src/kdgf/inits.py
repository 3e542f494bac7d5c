"""Deterministic and seeded builders for initial configurations and
frequency vectors used by the experiment harness and the test suite."""
from __future__ import annotations

import math

import numpy as np

from .core import NaturalFrequencies, PhaseConfig, mean_field


def near_sync(n: int, delta: float) -> PhaseConfig:
    """Strictly increasing zero-mean phases spanning exactly 2*delta."""
    if n < 2:
        raise ValueError("need at least two oscillators")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    return PhaseConfig(np.linspace(-delta, delta, n))


def near_bipolar(n: int, delta: float) -> PhaseConfig:
    """Locked group spread symmetrically around -pi/N, one oscillator half a
    turn away at (N-1)pi/N; zero mean by construction."""
    if n < 3:
        raise ValueError("need at least three oscillators")
    if not 0 < delta < math.inf:
        raise ValueError("delta must be positive and finite")
    phases = np.empty(n)
    phases[: n - 1] = -math.pi / n + np.linspace(-delta, delta, n - 1)
    phases[n - 1] = (n - 1) * math.pi / n
    return PhaseConfig(phases)


def random_arc(n: int, width: float, rng: np.random.Generator) -> PhaseConfig:
    """Uniform draw from an arc of the given width, projected to zero mean.

    Redraws on (measure-zero) duplicate phases or near-vanishing coherence so
    the result is always admissible initial data.
    """
    if n < 2:
        raise ValueError("need at least two oscillators")
    if not 0 < width < 2 * math.pi:
        raise ValueError("width must lie in (0, 2*pi)")
    for _ in range(100):
        theta = rng.uniform(-width / 2.0, width / 2.0, n)
        theta -= theta.mean()
        if np.unique(theta).size < n:
            continue
        if abs(mean_field(theta) / n) < 1e-9:
            continue
        return PhaseConfig(theta)
    raise RuntimeError("could not draw an admissible configuration")


def uniform_frequencies(n: int, spread: float,
                        rng: np.random.Generator) -> NaturalFrequencies:
    """Zero-mean frequencies with exact max-min spread."""
    if not 0 <= spread < math.inf:
        raise ValueError("spread must be nonnegative and finite")
    if spread == 0:
        return NaturalFrequencies.zero(n)
    w = rng.uniform(-1.0, 1.0, n)
    w -= w.mean()
    w *= spread / (w.max() - w.min())
    w -= w.mean()
    return NaturalFrequencies(w)
