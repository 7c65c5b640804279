"""Tests for the steering-payoff measurement behind EXPERIMENTS.md."""

from repro.harness.steering_eval import SteeringPayoff, steering_payoff
from repro.subjects.ccrypt import CcryptSubject


def test_ccrypt_payoff_is_pinned_and_deterministic():
    """At 120 runs uniform 1/100 sampling isolates nothing, while the
    closed loop (refit every 50 runs) isolates ccrypt's one bug by run
    100; a second call over the same seed gives the same result."""
    payoff = steering_payoff(CcryptSubject(), 120, seed=0, refit_runs=50)
    assert payoff == SteeringPayoff(
        subject="ccrypt",
        n_runs=120,
        unsteered=None,
        steered=100,
        unsteered_bugs=0,
        steered_bugs=1,
    )
    assert payoff.improved
    assert steering_payoff(CcryptSubject(), 120, seed=0, refit_runs=50) == payoff


def test_payoff_is_collected_through_the_daemon(monkeypatch):
    """The steered population comes from the serving daemon's refits:
    one fit at start-up and one per committed round of ``refit_runs``."""
    from repro.serve import server

    epochs = []
    fit = server.fit_steering

    def spy(*args, **kwargs):
        document = fit(*args, **kwargs)
        epochs.append(document.epoch)
        return document

    monkeypatch.setattr(server, "fit_steering", spy)
    steering_payoff(CcryptSubject(), 120, seed=0, refit_runs=50)
    assert epochs == [0, 50, 100]
