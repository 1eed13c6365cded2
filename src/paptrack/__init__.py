"""Closed-loop multi-object tracking testbed.

The loop: a synthetic BEV world emits noisy measurements, a query-based
perception stage turns queries into tracks, a kinematic predictor forecasts
track motion, and the forecasts are re-embedded as queries for the next
frame.  A metrics harness (AMOTA / AMOTP / Recall / IDS) quantifies the
delta between running the loop closed (predicted queries recycled) and
open (fresh random queries every frame).
"""

from paptrack.queries import CodecConfig, QueryBank, decode_reference, embed_center
from paptrack.world import Scenario, ScenarioConfig, SensorConfig, box_dtype, generate_scenario, sense

__all__ = [
    "CodecConfig",
    "QueryBank",
    "decode_reference",
    "embed_center",
    "Scenario",
    "ScenarioConfig",
    "SensorConfig",
    "box_dtype",
    "generate_scenario",
    "sense",
]

__version__ = "0.1.0"
