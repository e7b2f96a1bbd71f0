"""Shared experiment assets: traces, trained surrogates, model factory.

The paper's protocol (§IV-D, §V): collect a DeFog execution trace on
the testbed, train the GON offline on it, then evaluate every
resilience scheme on unseen AIoT workloads.  This module packages that
pipeline so each figure's experiment reuses the same trained assets.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

from ..baselines import (
    AlwaysFineTune,
    DYVERSE,
    ECLB,
    ELBS,
    FRAS,
    GANSurrogate,
    LBOS,
    NeverFineTune,
    StepGAN,
    TopoMAD,
    TraditionalSurrogate,
    WithGAN,
    WithTraditionalSurrogate,
)
from ..config import ExperimentConfig
from ..core import (
    CAROL,
    CAROLConfig,
    GONDiscriminator,
    GONInput,
    LocalScorer,
    ProactiveCAROL,
    TrainingConfig,
    TrainingHistory,
    train_gon,
)
from ..core.interface import ResilienceModel
from ..core.nodeshift import random_node_shift
from ..simulator.trace import Trace, collect_trace

__all__ = [
    "BASELINE_NAMES",
    "ABLATION_NAMES",
    "PROACTIVE_NAME",
    "TrainedAssets",
    "defog_config",
    "collect_defog_trace",
    "prepare_assets",
    "build_model",
]

BASELINE_NAMES = (
    "DYVERSE",
    "ECLB",
    "LBOS",
    "ELBS",
    "FRAS",
    "TopoMAD",
    "StepGAN",
)
ABLATION_NAMES = (
    "CAROL-AlwaysFT",
    "CAROL-NeverFT",
    "CAROL-WithGAN",
    "CAROL-FFSurrogate",
)
#: The §VI proactive scheme's campaign-model name (fleet-capable).
PROACTIVE_NAME = "CAROL-Proactive"


@dataclass
class TrainedAssets:
    """Everything trained offline before the evaluation runs."""

    trace: Trace
    samples: List[GONInput]
    objectives: List[float]
    gon_state: Dict[str, np.ndarray]
    gon_hidden: int
    gon_layers: int
    training_history: TrainingHistory
    gan_seed: int = 1
    seed: int = 0

    def fresh_gon(self) -> GONDiscriminator:
        """A GON initialised to the offline-trained weights."""
        model = GONDiscriminator(
            np.random.default_rng(self.seed),
            hidden=self.gon_hidden,
            n_layers=self.gon_layers,
        )
        model.load_state_dict(self.gon_state)
        return model


def defog_config(config: ExperimentConfig) -> ExperimentConfig:
    """Same federation, DeFog workloads (the training environment)."""
    return replace(
        config,
        workload=replace(config.workload, suite="defog"),
    )


def collect_defog_trace(
    config: ExperimentConfig, n_intervals: int
) -> Trace:
    """The Λ-collection protocol: DeFog run, topology shuffled every 10."""
    return collect_trace(
        defog_config(config),
        n_intervals=n_intervals,
        topology_mutator=random_node_shift,
        mutate_every=10,
    )


def prepare_assets(
    config: ExperimentConfig,
    trace_intervals: int = 200,
    gon_hidden: int = 48,
    gon_layers: int = 3,
    training: Optional[TrainingConfig] = None,
) -> TrainedAssets:
    """Collect the trace and train the GON offline (Algorithm 1).

    Defaults are CI-scale; the paper-scale run uses
    ``trace_intervals=1000, gon_hidden=128`` and the stock
    :class:`TrainingConfig`.
    """
    trace = collect_defog_trace(config, trace_intervals)
    samples = [GONInput(s.metrics, s.schedule, s.adjacency) for s in trace.samples]
    objectives = [s.objective for s in trace.samples]

    gon = GONDiscriminator(
        np.random.default_rng(config.seed), hidden=gon_hidden, n_layers=gon_layers
    )
    training = training or TrainingConfig(
        epochs=10, batch_size=16, learning_rate=1e-3, seed=config.seed
    )
    history = train_gon(gon, samples, training)

    return TrainedAssets(
        trace=trace,
        samples=samples,
        objectives=objectives,
        gon_state=gon.state_dict(),
        gon_hidden=gon_hidden,
        gon_layers=gon_layers,
        training_history=history,
        seed=config.seed,
    )


def build_model(
    name: str,
    assets: TrainedAssets,
    config: ExperimentConfig,
    carol_config: Optional[CAROLConfig] = None,
    scorer_backend: str = "fast",
) -> ResilienceModel:
    """Instantiate any §V scheme by name with shared trained assets.

    ``scorer_backend`` selects the GON kernel arithmetic for
    CAROL-family schemes (``repro.core.scoring.BACKENDS``).  Non-GON
    surrogates ignore it.
    """
    alpha, beta = config.alpha, config.beta
    carol_config = carol_config or CAROLConfig(seed=config.seed)

    gon_models = {
        "CAROL": CAROL,
        PROACTIVE_NAME: ProactiveCAROL,
        "CAROL-AlwaysFT": AlwaysFineTune,
        "CAROL-NeverFT": NeverFineTune,
    }
    if name in gon_models:
        gon = assets.fresh_gon()
        scorer = LocalScorer(gon, backend=scorer_backend)
        return gon_models[name](gon, alpha, beta, carol_config, scorer=scorer)
    if name == "CAROL-WithGAN":
        n_hosts = config.federation.n_hosts
        surrogate = GANSurrogate(
            n_hosts, np.random.default_rng(assets.gan_seed)
        )
        surrogate.fit(assets.samples, epochs=2)
        return WithGAN(surrogate, alpha, beta, carol_config)
    if name == "CAROL-FFSurrogate":
        surrogate = TraditionalSurrogate(np.random.default_rng(config.seed))
        surrogate.fit(
            assets.samples,
            assets.objectives,
            epochs=5,
            rng=np.random.default_rng(config.seed),
        )
        return WithTraditionalSurrogate(surrogate, alpha, beta, carol_config)
    if name == "DYVERSE":
        return DYVERSE()
    if name == "ECLB":
        return ECLB()
    if name == "LBOS":
        return LBOS(seed=config.seed)
    if name == "ELBS":
        return ELBS()
    if name == "FRAS":
        return FRAS(seed=config.seed)
    if name == "TopoMAD":
        return TopoMAD(seed=config.seed)
    if name == "StepGAN":
        return StepGAN(seed=config.seed)
    raise ValueError(f"unknown model {name!r}")
