"""Bernoulli sampling of instrumentation sites (Sections 2 and 4).

Each time instrumentation code is reached, "a coin flip decides whether
the instrumentation is executed or not ... each potential sample is taken
or skipped randomly and independently as the program runs".  The standard
trick (from the original CBI transformation) is to draw the *gap* until
the next taken sample from a geometric distribution, so skipping costs a
single counter decrement.

Two regimes are provided via :class:`SamplingPlan`:

* **uniform**: one global rate (the paper's default is 1/100) with a
  single shared countdown across all sites;
* **per-site** (the "nonuniform sampling" of Section 4): each site has
  its own rate and countdown.  :func:`adaptive_rates` reproduces the
  paper's training procedure -- given mean per-run reach counts from a
  training set, choose rates so each site is expected to yield ~100
  samples per run, clamped to a minimum of 1/100, with rarely reached
  sites (< 100 expected reaches) sampled at 1.0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from repro.obs import enabled as _obs_enabled, gauge as _obs_gauge, timer as _obs_timer

#: The paper's default sampling density.
DEFAULT_RATE = 1.0 / 100.0

#: The paper's target expected samples per site per run (Section 4).
DEFAULT_TARGET_SAMPLES = 100.0

#: The paper's floor on adaptive sampling rates.
MIN_ADAPTIVE_RATE = 1.0 / 100.0


def geometric_gap(rate: float, u: float) -> int:
    """Map a uniform variate ``u`` in (0,1) to a geometric inter-sample gap.

    The gap is the number of opportunities until (and including) the next
    taken sample under independent Bernoulli(``rate``) coin flips.  A rate
    of 1.0 always yields 1 (sample every opportunity).
    """
    if not 0.0 < rate <= 1.0:
        raise ValueError(f"rate must be in (0, 1], got {rate}")
    if rate >= 1.0:
        return 1
    # Inverse-CDF sampling of Geometric(rate) supported on {1, 2, ...}.
    return int(math.floor(math.log(max(u, 1e-300)) / math.log(1.0 - rate))) + 1


def adaptive_rates(
    mean_reach_counts: Sequence[float],
    target_samples: float = DEFAULT_TARGET_SAMPLES,
    min_rate: float = MIN_ADAPTIVE_RATE,
) -> np.ndarray:
    """Compute per-site rates from training-run reach counts (Section 4).

    "Based on a training set of 1,000 executions, we set the sampling rate
    of each predicate so as to obtain an expected 100 samples of each
    predicate in subsequent program executions.  On the low end, the
    sampling rate is clamped to a minimum of 1/100; if the site is
    expected to be reached fewer than 100 times the sampling rate is set
    at 1.0."

    Args:
        mean_reach_counts: Mean times each site is reached per run, from a
            fully sampled training set.
        target_samples: Desired expected samples per site per run.
        min_rate: Rate floor for very hot sites.

    Returns:
        Array of per-site rates in ``[min_rate, 1.0]``.
    """
    counts = np.asarray(mean_reach_counts, dtype=np.float64)
    with _obs_timer("sampling.adaptive_rates"):
        with np.errstate(divide="ignore", invalid="ignore"):
            rates = np.where(
                counts > 0, target_samples / np.maximum(counts, 1e-300), 1.0
            )
        rates = np.where(counts < target_samples, 1.0, rates)
        rates = np.clip(rates, min_rate, 1.0)
    if _obs_enabled() and rates.size:
        _obs_gauge("sampling.sites", float(rates.size))
        _obs_gauge("sampling.sites_at_full_rate", float((rates >= 1.0).sum()))
        _obs_gauge("sampling.min_rate", float(rates.min()))
    return rates


@dataclass
class SamplingPlan:
    """A complete sampling configuration for a run population.

    Attributes:
        mode: ``"full"`` (rate 1.0 everywhere -- the paper's validation
            configuration), ``"uniform"`` (one global rate), or
            ``"per-site"`` (adaptive rates).
        rate: Global rate for ``"uniform"`` mode.
        site_rates: Per-site rates for ``"per-site"`` mode.
    """

    mode: str = "uniform"
    rate: float = DEFAULT_RATE
    site_rates: Optional[np.ndarray] = None

    @classmethod
    def full(cls) -> "SamplingPlan":
        """No sampling: observe every opportunity (validation mode)."""
        return cls(mode="full")

    @classmethod
    def uniform(cls, rate: float = DEFAULT_RATE) -> "SamplingPlan":
        """A single global Bernoulli rate (the paper's 1/100 default)."""
        if not 0.0 < rate <= 1.0:
            raise ValueError(f"rate must be in (0, 1], got {rate}")
        return cls(mode="uniform", rate=rate)

    @classmethod
    def per_site(cls, site_rates: Sequence[float]) -> "SamplingPlan":
        """Nonuniform per-site rates (Section 4's adaptive sampling)."""
        rates = np.asarray(site_rates, dtype=np.float64)
        if not ((rates > 0.0) & (rates <= 1.0)).all():  # NaN fails too
            raise ValueError("site rates must be in (0, 1]")
        return cls(mode="per-site", site_rates=rates)

    @classmethod
    def adaptive(
        cls,
        mean_reach_counts: Sequence[float],
        target_samples: float = DEFAULT_TARGET_SAMPLES,
        min_rate: float = MIN_ADAPTIVE_RATE,
    ) -> "SamplingPlan":
        """Build a per-site plan from training reach counts."""
        return cls.per_site(adaptive_rates(mean_reach_counts, target_samples, min_rate))

    @classmethod
    def from_steering(cls, document) -> "SamplingPlan":
        """Build a per-site plan from a daemon's steering document.

        ``document`` is a :class:`repro.serve.steering.SteeringDocument`
        or any object/dict carrying a ``rates`` sequence (duck-typed so
        this layer stays independent of the serving stack).  The rates
        feed the ordinary per-site machinery unchanged, which is what
        makes steered collection with a pinned table bit-identical to a
        local adaptive plan over the same seeds.
        """
        rates = document["rates"] if isinstance(document, dict) else document.rates
        return cls.per_site(rates)

