"""recovergen: expand one demonstration into a curated dataset of
physically valid, successful, diverse recovery trajectories.

numpy loads on first use.  Before the submodules are imported, numpy is put
into ``sys.modules`` through ``importlib.util.LazyLoader``, unless it is
already imported, and each submodule takes it as ``from . import _np as
np``: on Python 3.11 an ``import numpy`` statement reads the module's
``__spec__``, which loads it at once.  So ``recovergen stats``, ``--help``
and argument and config errors never load numpy, and the commands that
compute load the same numpy at their first array."""

import importlib.util
import sys


def _lazy_numpy():
    """numpy as imported already, or a module that imports it on its first
    attribute read; ModuleNotFoundError, as ``import numpy`` raises it, when
    numpy is not installed."""
    module = sys.modules.get("numpy")
    if module is not None:
        return module
    spec = importlib.util.find_spec("numpy")
    if spec is None:
        raise ModuleNotFoundError("No module named 'numpy'", name="numpy")
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules["numpy"] = module
    spec.loader.exec_module(module)
    return module


_np = _lazy_numpy()

from .config import PipelineConfig, load_config  # noqa: E402
from .envs import PlanarBlockRotate, PointReach, make_env  # noqa: E402
from .pipeline import evaluate_replay, run_pgdg, run_spatial_only  # noqa: E402

__all__ = [
    "PipelineConfig", "load_config",
    "PlanarBlockRotate", "PointReach", "make_env",
    "run_pgdg", "run_spatial_only", "evaluate_replay",
]

__version__ = "0.1.0"
