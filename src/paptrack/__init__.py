"""Closed-loop multi-object tracking testbed.

The loop: a synthetic BEV world emits noisy measurements, a query-based
perception stage turns queries into tracks, a kinematic predictor forecasts
each track one step, and the forecasts become the next frame's predicted
queries.  A metrics harness (AMOTA / AMOTP / Recall / IDS) quantifies the
delta between running the loop closed (predicted queries recycled) and
open (fresh random queries every frame).
"""

from paptrack.queries import QueryBank, embed_center
from paptrack.world import Scenario, ScenarioConfig, SensorConfig, box_dtype, generate_scenario, sense

__all__ = [
    "QueryBank",
    "embed_center",
    "Scenario",
    "ScenarioConfig",
    "SensorConfig",
    "box_dtype",
    "generate_scenario",
    "sense",
]

__version__ = "0.1.0"
