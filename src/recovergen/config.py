"""Run configuration: dataclasses plus a plain-text ``key = value`` file
format.

Keys are dotted by section, e.g.::

    env = planar_block_rotate
    env.horizon = 60
    iterations = 5
    sampler.m_points = 12
    curator.q_min = 0.2
    relabel.cem_iterations = 30

Values are parsed as JSON where possible (numbers, lists, booleans) and
kept as strings otherwise.  Unknown and repeated keys are rejected.
"""
from __future__ import annotations

import dataclasses
import json
import math
import numbers
import os
from dataclasses import dataclass, field, fields
from typing import Dict, Iterator, Optional, Tuple, Type

from .envs import make_env


class ConfigError(ValueError):
    """Bad configuration file or option."""


@dataclass
class SamplerConfig:
    # variance_floor is in squared control-point units; the desk-scale
    # environments use +-0.03 m actions, so the floor sits well below the
    # default initial spread (0.05 x action range = 3e-3).
    m_points: int = 16
    sigma0: float = 0.0          # 0 -> 0.05 x per-dimension action range
    variance_floor: float = 1e-8


@dataclass
class CuratorConfig:
    q_min: float = 0.2
    q_max: float = 0.8
    k_dct: int = 8
    sigma_rbf: float = 0.0       # 0 -> median pairwise embedding distance
    m_fraction: float = 0.8      # selected fraction of each success batch
    temperature: float = 0.25
    eps_dpp: float = 1e-6
    eps_stab: float = 1e-3
    delta: float = 1e-8          # refit variance floor, squared action units


@dataclass
class RelabelConfig:
    k_rel: int = 10
    horizon: int = 15
    min_sep: int = 0             # 0 -> horizon
    population: int = 64
    elite_frac: float = 0.125
    cem_iterations: int = 30
    init_std: float = 0.0        # 0 -> 0.25 x per-dimension action range
    w_fail: float = 1e3
    w_tube: float = 10.0
    w_ref: float = 1.0


@dataclass
class PipelineConfig:
    env: str = "planar_block_rotate"
    env_overrides: Dict = field(default_factory=dict)
    n_variants: int = 4
    iterations: int = 5          # outer loop count per variant
    samples: int = 64            # rollouts per iteration
    seed: int = 0
    out_dir: str = "out"
    jobs: int = 1
    l_blend: int = 10
    chunk_len: int = 30
    # x, y, z bounds: z is drawn and unused, which keeps each pose's random
    # numbers those of the stored datasets
    trans_range: tuple = (0.08, 0.08, 0.0)
    yaw_range: float = 0.3
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    curator: CuratorConfig = field(default_factory=CuratorConfig)
    relabel: RelabelConfig = field(default_factory=RelabelConfig)

    def validate(self) -> None:
        if self.iterations < 1 or self.samples < 1 or self.n_variants < 1:
            raise ConfigError("iterations, samples, and n_variants must all be >= 1")
        if not 0.0 <= self.curator.q_min < self.curator.q_max <= 1.0:
            raise ConfigError("need 0 <= q_min < q_max <= 1")
        if self.l_blend < 1 or self.chunk_len < 1:
            raise ConfigError("l_blend and chunk_len must be >= 1")
        if self.jobs < 1:
            raise ConfigError("jobs must be >= 1")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        # the output directory is made after the last rollout: refuse now a
        # path that a file, or a file among its parents, keeps from being one
        existing = os.path.abspath(self.out_dir)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            raise ConfigError(f"out_dir {self.out_dir!r}: {existing} is not a directory")
        if self.sampler.m_points < 2:
            raise ConfigError("sampler.m_points must be >= 2")
        sc, cc, rc = self.sampler, self.curator, self.relabel
        tr = self.trans_range
        if not (isinstance(tr, (tuple, list)) and len(tr) == 3 and all(map(_nonneg, tr))):
            raise ConfigError(f"trans_range must be three finite numbers >= 0 (x, y and "
                              f"an unused z), got {tr!r}")
        # 0 means "auto" for sigma0, sigma_rbf, min_sep and init_std
        for name, value in [("yaw_range", self.yaw_range), ("sampler.sigma0", sc.sigma0),
                            ("sampler.variance_floor", sc.variance_floor),
                            ("curator.sigma_rbf", cc.sigma_rbf),
                            ("curator.eps_stab", cc.eps_stab), ("curator.delta", cc.delta),
                            ("relabel.k_rel", rc.k_rel), ("relabel.min_sep", rc.min_sep),
                            ("relabel.cem_iterations", rc.cem_iterations),
                            ("relabel.init_std", rc.init_std), ("relabel.w_fail", rc.w_fail),
                            ("relabel.w_tube", rc.w_tube), ("relabel.w_ref", rc.w_ref)]:
            if not _nonneg(value):
                raise ConfigError(f"{name} must be a finite number >= 0, got {value!r}")
        for name, value in [("curator.temperature", cc.temperature),
                            ("curator.eps_dpp", cc.eps_dpp)]:
            if not (_nonneg(value) and value > 0):
                raise ConfigError(f"{name} must be a finite number > 0, got {value!r}")
        if not 0.0 < cc.m_fraction <= 1.0:
            raise ConfigError("curator.m_fraction must lie in (0, 1]")
        if cc.k_dct < 1:
            raise ConfigError("curator.k_dct must be >= 1")
        if rc.population < 1:
            raise ConfigError("relabel.population must be >= 1")
        if not 0.0 < rc.elite_frac <= 1.0:
            raise ConfigError("relabel.elite_frac must lie in (0, 1]")
        if rc.horizon < 1:
            raise ConfigError("relabel.horizon must be >= 1")
        try:
            env_horizon = make_env(self.env, **self.env_overrides).horizon
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"environment '{self.env}': {exc}") from exc
        for name, length in [("relabel.horizon", rc.horizon), ("chunk_len", self.chunk_len),
                             ("curator.k_dct + 1", cc.k_dct + 1),
                             ("sampler.m_points", sc.m_points)]:
            if length > env_horizon:
                raise ConfigError(f"{name} ({length}) exceeds the environment "
                                  f"horizon ({env_horizon})")
        if env_horizon + 1 - self.l_blend < 2:
            raise ConfigError(f"l_blend ({self.l_blend}) leaves fewer than 2 demo poses "
                              f"in the environment horizon ({env_horizon})")


def _nonneg(value) -> bool:
    """A finite real number >= 0 (NaN and booleans are not)."""
    return (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and 0 <= value < math.inf)


_SECTIONS = {"sampler": SamplerConfig, "curator": CuratorConfig, "relabel": RelabelConfig}


def _coerce(value: str):
    try:
        return json.loads(value)
    except json.JSONDecodeError:
        return value


def _set_field(obj, name: str, value, where: str) -> None:
    valid = {f.name: f for f in fields(obj)}
    if name not in valid:
        raise ConfigError(f"unknown key '{where}'")
    current = getattr(obj, name)
    if isinstance(current, tuple) and isinstance(value, list):
        value = tuple(value)
    elif isinstance(current, (int, float)):
        value = _number(type(current), value, where)
    elif isinstance(current, str):
        value = str(value)
    setattr(obj, name, value)


def _number(kind: type, value, where: str):
    """``value`` as an int or float field value.  Booleans are refused,
    and an int field takes only exact integers (``2`` or ``2.0``, not
    ``1.7``), instead of truncating them."""
    if not isinstance(value, bool):
        if kind is float and isinstance(value, numbers.Real):
            return float(value)
        if kind is int and (isinstance(value, numbers.Integral)
                            or isinstance(value, float) and value.is_integer()):
            return int(value)
    raise ConfigError(f"'{where}' expects {'an integer' if kind is int else 'a number'}, "
                      f"got {value!r}")


def apply_option(cfg: PipelineConfig, key: str, value) -> None:
    """Apply one dotted-key option (value already coerced or raw string)."""
    if isinstance(value, str):
        value = _coerce(value)
    if "." in key:
        section, _, name = key.partition(".")
        if section == "env":
            cfg.env_overrides[name] = tuple(value) if isinstance(value, list) else value
            return
        if section not in _SECTIONS:
            raise ConfigError(f"unknown section '{section}'")
        _set_field(getattr(cfg, section), name, value, key)
        return
    if key == "env":
        cfg.env = str(value)
        return
    _set_field(cfg, key, value, key)


def key_value_lines(path: str, error: Type[Exception]) -> Iterator[Tuple[int, str, str]]:
    """``(line number, key, value)`` for each ``key = value`` line of
    ``path``, key and value stripped.  Blank and ``#`` lines are skipped
    but counted; a line without ``=`` or a repeated key raises ``error``
    naming the line."""
    first_line: Dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise error(f"{path}: line {lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in first_line:
                raise error(f"{path}: line {lineno}: duplicate key {key!r}, "
                            f"first set on line {first_line[key]}")
            first_line[key] = lineno
            yield lineno, key, value.strip()


def load_config(path: Optional[str] = None, overrides: Optional[Dict] = None) -> PipelineConfig:
    cfg = PipelineConfig()
    if path is not None:
        for lineno, key, value in key_value_lines(path, ConfigError):
            try:
                apply_option(cfg, key, value)
            except ConfigError as exc:
                raise ConfigError(f"{path}: line {lineno}: {exc}") from exc
    for key, value in (overrides or {}).items():
        apply_option(cfg, key, value)
    cfg.validate()
    return cfg


def config_parameters(cfg: PipelineConfig) -> Dict:
    """Flat parameter dict recorded in the dataset manifest."""
    out = {
        "n_variants": cfg.n_variants, "iterations": cfg.iterations,
        "samples": cfg.samples, "l_blend": cfg.l_blend, "chunk_len": cfg.chunk_len,
        "trans_range": list(cfg.trans_range), "yaw_range": cfg.yaw_range,
    }
    for section in ("sampler", "curator", "relabel"):
        for f in fields(getattr(cfg, section)):
            out[f"{section}.{f.name}"] = getattr(getattr(cfg, section), f.name)
    return out
