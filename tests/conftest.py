"""Shared fixtures: small synthetic traces and reusable matrices.

The stdlib hang guard every test runs under lives in the root conftest.py.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.cloudsim.dynamics import DynamicsConfig
from repro.cloudsim.tracegen import TraceConfig, generate_trace

MB = 1024 * 1024


@pytest.fixture(scope="session")
def small_trace():
    """8 machines × 24 snapshots with default (EC2-like) dynamics."""
    return generate_trace(TraceConfig(n_machines=8, n_snapshots=24), seed=42)


@pytest.fixture(scope="session")
def tiny_trace():
    """4 machines × 10 snapshots — the smallest interesting trace."""
    return generate_trace(TraceConfig(n_machines=4, n_snapshots=10), seed=7)


@pytest.fixture(scope="session")
def calm_trace():
    """8 machines × 20 snapshots with dynamics disabled (pure bands)."""
    cfg = TraceConfig(
        n_machines=8,
        n_snapshots=20,
        dynamics=DynamicsConfig(
            volatility_sigma=0.0,
            spike_probability=0.0,
            hotspot_probability=0.0,
            migration_rate=0.0,
        ),
    )
    return generate_trace(cfg, seed=11)


@pytest.fixture(scope="session")
def migrating_trace():
    """12 machines × 40 snapshots with frequent migrations (regime changes)."""
    cfg = TraceConfig(
        n_machines=12,
        n_snapshots=40,
        dynamics=DynamicsConfig(
            volatility_sigma=0.08,
            spike_probability=0.02,
            spike_severity=1.5,
            migration_rate=0.05,
        ),
    )
    return generate_trace(cfg, seed=99)


@pytest.fixture()
def rng():
    return np.random.default_rng(1234)
