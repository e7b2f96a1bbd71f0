"""Shared benchmark fixtures.

Benches run a reduced-but-faithful configuration (8 hosts / 2 LEIs,
40-60 evaluation intervals, 150-interval DeFog trace, 32-wide GON) and
print the full rows/series of the corresponding paper artifact.  The
paper-scale settings (16 hosts / 4 LEIs, 100 intervals, 1000-interval
trace, 128-wide GON) are a config change away -- see
``repro.config.paper_scale``.
"""

from __future__ import annotations

import pytest

from repro.config import ExperimentConfig, FaultConfig, FederationConfig, WorkloadConfig
from repro.core import TrainingConfig
from repro.experiments import prepare_assets


def bench_config(n_intervals: int = 40, seed: int = 1) -> ExperimentConfig:
    return ExperimentConfig(
        federation=FederationConfig(n_hosts=8, n_leis=2, n_large_hosts=4),
        workload=WorkloadConfig(suite="aiot", arrival_rate=1.2),
        faults=FaultConfig(rate=0.5),
        n_intervals=n_intervals,
        seed=seed,
    )


@pytest.fixture(scope="session")
def assets():
    """DeFog trace + offline-trained GON shared by every bench."""
    config = bench_config()
    return prepare_assets(
        config,
        trace_intervals=150,
        gon_hidden=32,
        gon_layers=3,
        training=TrainingConfig(
            epochs=8, batch_size=16, learning_rate=1e-3,
            generation_steps=20, seed=1,
        ),
    )


@pytest.fixture(scope="session")
def config():
    return bench_config()
