"""recovergen: expand one demonstration into a curated dataset of
physically valid, successful, diverse recovery trajectories."""

from .config import PipelineConfig, load_config
from .envs import PlanarBlockRotate, PointReach, make_env
from .pipeline import evaluate_replay, run_pgdg, run_spatial_only

__all__ = [
    "PipelineConfig", "load_config",
    "PlanarBlockRotate", "PointReach", "make_env",
    "run_pgdg", "run_spatial_only", "evaluate_replay",
]

__version__ = "0.1.0"
