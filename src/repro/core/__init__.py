"""``repro.core`` -- the paper's primary contribution.

The GON discriminator (Fig. 3), its Algorithm-1 adversarial training,
eq.-1 input-space surrogate generation with confidence scores, POT
dynamic thresholding, node-shift topology repair, tabu search and the
CAROL resilience loop (Algorithm 2).
"""

from .carol import CAROL, CAROLConfig, CAROLDiagnostics
from .features import (
    ENERGY_COLUMN,
    GONInput,
    N_M_FEATURES,
    N_NODE_FEATURES,
    N_S_FEATURES,
    SLO_COLUMN,
    from_interval,
    node_features,
)
from .gon import GONDiscriminator
from .interface import ResilienceModel
from .nodeshift import (
    neighbours,
    random_node_shift,
    repair_options,
    shift_type_1,
    shift_type_2,
    shift_type_3,
)
from .objectives import QoSObjective
from .pot import PeakOverThreshold
from .proactive import ProactiveCAROL
from .scoring import LocalScorer, SurrogateScorer
from .surrogate import SurrogateResult, generate_metrics_batch
from .tabu import TabuResult, as_batched, batched_objective, tabu_search
from .training import (
    TrainingConfig,
    TrainingHistory,
    evaluate,
    fine_tune,
    train_gon,
)

__all__ = [
    "CAROL",
    "CAROLConfig",
    "CAROLDiagnostics",
    "GONDiscriminator",
    "GONInput",
    "ResilienceModel",
    "QoSObjective",
    "PeakOverThreshold",
    "ProactiveCAROL",
    "SurrogateResult",
    "SurrogateScorer",
    "LocalScorer",
    "generate_metrics_batch",
    "TabuResult",
    "tabu_search",
    "batched_objective",
    "as_batched",
    "TrainingConfig",
    "TrainingHistory",
    "train_gon",
    "fine_tune",
    "evaluate",
    "neighbours",
    "random_node_shift",
    "repair_options",
    "shift_type_1",
    "shift_type_2",
    "shift_type_3",
    "from_interval",
    "node_features",
    "N_M_FEATURES",
    "N_S_FEATURES",
    "N_NODE_FEATURES",
    "ENERGY_COLUMN",
    "SLO_COLUMN",
]
