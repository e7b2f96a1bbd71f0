"""DeFog benchmark workloads (training suite, §IV-D).

The paper trains the GON on execution traces of three DeFog
applications (McChesney et al., SEC'19): **Yolo** (object detection,
heavy CPU + RAM), **PocketSphinx** (speech-to-text, CPU-bound with
long runs) and **Aeneas** (audio-text alignment, CPU + disk).  The
envelopes below are synthetic but calibrated to the relative demands
reported in the DeFog paper for Pi-class devices; CAROL only observes
the induced utilisation traces, so matching relative shape is what
matters.
"""

from __future__ import annotations

import numpy as np

from .base import ApplicationProfile, WorkloadGenerator

__all__ = ["DEFOG_PROFILES", "make_defog_generator"]

DEFOG_PROFILES = (
    # Yolo: single-shot CNN detection; ~100s on a Pi at full load,
    # large resident model.
    ApplicationProfile(
        name="yolo",
        mean_mi=380_000.0,
        mean_ram_gb=1.8,
        mean_disk_mb=220.0,
        mean_net_mb=35.0,
        slo_seconds=220.0,
        cv=0.30,
    ),
    # PocketSphinx: long CPU-bound decoding of audio chunks.
    ApplicationProfile(
        name="pocketsphinx",
        mean_mi=520_000.0,
        mean_ram_gb=0.9,
        mean_disk_mb=60.0,
        mean_net_mb=12.0,
        slo_seconds=320.0,
        cv=0.25,
    ),
    # Aeneas: forced alignment; moderate CPU with disk churn.
    ApplicationProfile(
        name="aeneas",
        mean_mi=260_000.0,
        mean_ram_gb=0.6,
        mean_disk_mb=400.0,
        mean_net_mb=20.0,
        slo_seconds=180.0,
        cv=0.25,
    ),
)


def make_defog_generator(
    rng: np.random.Generator,
    arrival_rate: float = 1.2,
    drift_scale: float = 0.02,
    jump_probability: float = 0.01,
) -> WorkloadGenerator:
    """Build the DeFog bag-of-tasks generator used for trace collection."""
    return WorkloadGenerator(
        DEFOG_PROFILES,
        arrival_rate=arrival_rate,
        rng=rng,
        drift_scale=drift_scale,
        jump_probability=jump_probability,
    )
