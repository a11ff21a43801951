"""Decay checks and the reach-time bound."""

import math

import numpy as np
import pytest

from beliefshield.barrier import (
    FtParams, LinearAlpha, dtbf_check, ft_dtbf_check, ft_time_bound,
)
from beliefshield.errors import InvalidStart


def test_linear_alpha_validates_range():
    assert LinearAlpha(0.5)(2.0) == 1.0
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            LinearAlpha(bad)


def test_ft_params_validate_ranges():
    FtParams(0.99, 0.1)
    for rho, eps in ((0.0, 0.1), (1.0, 0.1), (0.5, 0.0), (0.5, -1.0), (0.5, math.inf),
                     (0.5, math.nan)):
        with pytest.raises(ValueError):
            FtParams(rho, eps)


def test_dtbf_check_boundary_and_signs():
    alpha = LinearAlpha(0.5)
    # Exact boundary h_next = (1 - gamma) * h_prev passes.
    assert dtbf_check(0.4, 0.2, alpha)
    assert not dtbf_check(0.4, 0.19, alpha)
    assert dtbf_check(0.4, 1.0, alpha)
    # Applied as written for negative values: the bound then requires
    # moving no further down than gamma times the (negative) value.
    assert dtbf_check(-0.4, -0.2, alpha)
    assert not dtbf_check(-0.4, -0.7, alpha)


def test_ft_dtbf_check_boundary():
    p = FtParams(rho=0.9, eps=1.0)
    # Boundary: h_next = rho * h_prev + eps * (1 - rho).
    assert ft_dtbf_check(-1.0, -0.8, p)
    assert not ft_dtbf_check(-1.0, -0.81, p)


def test_time_bound_pinned_values():
    assert ft_time_bound(-0.4, FtParams(rho=0.99, eps=0.1)) == 160
    # (eps - h0) / eps = 2 and 1/rho = 2 give exactly one step.
    assert ft_time_bound(-0.1, FtParams(rho=0.5, eps=0.1)) == 1


def test_time_bound_formula_matches_log_expression():
    rng = np.random.default_rng(5)
    for _ in range(200):
        rho = float(rng.uniform(0.05, 0.999))
        eps = float(rng.uniform(1e-3, 2.0))
        h0 = -float(rng.uniform(1e-3, 5.0))
        expected = math.floor(math.log((eps - h0) / eps) / math.log(1.0 / rho))
        assert ft_time_bound(h0, FtParams(rho, eps)) == expected


def test_time_bound_rejects_nonnegative_start():
    with pytest.raises(InvalidStart):
        ft_time_bound(0.0, FtParams(0.9, 0.1))
    with pytest.raises(InvalidStart):
        ft_time_bound(0.3, FtParams(0.9, 0.1))


def test_compliant_sequence_keeps_decay_chain():
    # Along any run that passes ft_dtbf_check each step, the gap to eps
    # shrinks at least geometrically: h_t - eps >= rho^t * (h_0 - eps).
    rng = np.random.default_rng(6)
    p = FtParams(rho=0.95, eps=0.2)
    h = -1.0
    h0 = h
    for t in range(1, 60):
        h_next = p.rho * h + p.eps * (1.0 - p.rho) + float(rng.uniform(0.0, 0.02))
        assert ft_dtbf_check(h, h_next, p)
        h = h_next
        assert h - p.eps >= p.rho ** t * (h0 - p.eps) - 1e-9


def test_invariance_decay_keeps_nonnegative():
    # Unit-scale version of the invariance property: start at h >= 0 and
    # satisfy the decay check each step, and the value never goes
    # negative.
    rng = np.random.default_rng(7)
    alpha = LinearAlpha(0.3)
    h = 0.9
    for _ in range(100):
        h_next = (1.0 - alpha.gamma) * h + float(rng.uniform(0.0, 0.05))
        assert dtbf_check(h, h_next, alpha)
        h = h_next
        assert h >= 0.0

