"""Fig. 4 -- GON training curves (§IV-E).

Collect the DeFog trace, train the GON with Algorithm 1 and report the
per-epoch loss, test-set MSE of generated metrics and mean confidence
score -- the three series of the paper's training plot (loss falls,
MSE falls, confidence rises; convergence around 30 epochs with early
stopping).  Training records the loss; :func:`format_fig4`'s first
read of the MSE and confidence series scores the history's per-epoch
weight snapshots on the test split (see
:class:`~repro.core.training.TrainingHistory`), so the reported
training time excludes that scoring.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..config import ExperimentConfig, ci_scale
from ..core import TrainingConfig, TrainingHistory
from .calibration import prepare_assets
from .report import format_table, sparkline

__all__ = ["Fig4Config", "run_fig4", "format_fig4"]


@dataclass
class Fig4Config:
    base: ExperimentConfig = field(default_factory=ci_scale)
    trace_intervals: int = 150
    gon_hidden: int = 48
    gon_layers: int = 3
    training: Optional[TrainingConfig] = None


def run_fig4(config: Optional[Fig4Config] = None) -> TrainingHistory:
    config = config or Fig4Config()
    training = config.training or TrainingConfig(
        epochs=12, batch_size=16, learning_rate=1e-3, seed=config.base.seed
    )
    assets = prepare_assets(
        config.base,
        trace_intervals=config.trace_intervals,
        gon_hidden=config.gon_hidden,
        gon_layers=config.gon_layers,
        training=training,
    )
    return assets.training_history


def format_fig4(history: TrainingHistory) -> str:
    table = format_table(
        headers=("epoch", "loss", "MSE", "confidence"),
        rows=history.rows(),
        title="-- Fig. 4: GON training curves --",
    )
    lines = [
        table,
        f"loss      : {sparkline(history.losses)}",
        f"mse       : {sparkline(history.mses)}",
        f"confidence: {sparkline(history.confidences)}",
        (
            f"stopped at epoch {history.stopped_epoch} "
            f"in {history.wall_seconds:.1f}s"
        ),
    ]
    return "\n".join(lines)
