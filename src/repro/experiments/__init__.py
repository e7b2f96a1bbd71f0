"""``repro.experiments`` -- one module per paper table/figure.

The README's CLI reference lists the artifact commands.  Each module
exposes a ``run_*`` entry point returning structured results and a
``format_*`` helper printing the same rows/series the paper's artifact
shows.
"""

from .calibration import (
    ABLATION_NAMES,
    BASELINE_NAMES,
    TrainedAssets,
    build_model,
    collect_defog_trace,
    prepare_assets,
)
from .campaign import (
    CampaignConfig,
    CampaignResult,
    DETERMINISTIC_METRICS,
    GRID_IDENTITY_FIELDS,
    RunRecord,
    RunTask,
    campaign_config_hash,
    campaign_grid_identity,
    canonical_model_name,
    ci_campaign_config,
    fleet_ci_campaign_config,
    plan_tasks,
    prepare_campaign_assets,
    record_from_payload,
    record_to_payload,
    run_campaign,
)
from .fig2_confidence import Fig2Config, Fig2Result, format_fig2, run_fig2
from .fig4_training import Fig4Config, format_fig4, run_fig4
from .fig5_comparison import (
    Fig5Config,
    METRIC_PANELS,
    format_results,
    headline_deltas,
    run_fig5,
)
from .fig6_sensitivity import (
    Fig6Config,
    GAMMA_GRID,
    LAYER_GRID,
    SweepPoint,
    TABU_GRID,
    format_sweep,
    run_learning_rate_sweep,
    run_memory_sweep,
    run_tabu_sweep,
)
from .report import format_relative_table, format_table, sparkline
from .runner import EDGE_SLOWDOWN, ExperimentResult, run_experiment
from .table1_features import (
    TABLE1,
    Table1Row,
    format_table1,
    table1_rows,
    verify_against_implementation,
)

__all__ = [
    "run_experiment",
    "ExperimentResult",
    "EDGE_SLOWDOWN",
    "CampaignConfig",
    "CampaignResult",
    "RunTask",
    "RunRecord",
    "DETERMINISTIC_METRICS",
    "canonical_model_name",
    "GRID_IDENTITY_FIELDS",
    "campaign_config_hash",
    "campaign_grid_identity",
    "record_from_payload",
    "record_to_payload",
    "plan_tasks",
    "prepare_campaign_assets",
    "run_campaign",
    "ci_campaign_config",
    "fleet_ci_campaign_config",
    "prepare_assets",
    "build_model",
    "collect_defog_trace",
    "TrainedAssets",
    "BASELINE_NAMES",
    "ABLATION_NAMES",
    "Fig2Config",
    "Fig2Result",
    "run_fig2",
    "format_fig2",
    "Fig4Config",
    "run_fig4",
    "format_fig4",
    "Fig5Config",
    "run_fig5",
    "format_results",
    "headline_deltas",
    "METRIC_PANELS",
    "Fig6Config",
    "SweepPoint",
    "run_learning_rate_sweep",
    "run_memory_sweep",
    "run_tabu_sweep",
    "format_sweep",
    "GAMMA_GRID",
    "LAYER_GRID",
    "TABU_GRID",
    "TABLE1",
    "Table1Row",
    "table1_rows",
    "format_table1",
    "verify_against_implementation",
    "format_table",
    "format_relative_table",
    "sparkline",
]
