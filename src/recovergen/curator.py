"""Dataset curation: recovery-tube reward, frequency-domain trajectory
embeddings, diversity selection, and the weighted proposal refit.

The curation is hierarchical: successful rollouts are first scored by how
much time they spend inside the adaptive recovery band, then a diverse
subset is chosen by greedy log-det maximization over an RBF similarity
kernel, and finally the sampling distribution is refit by weighted moment
matching over the selected control points.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence

from . import _np as np

from .sampler import Proposal


class TubeUnavailableError(RuntimeError):
    """Raised when a tube is requested from a starved first batch."""


@dataclass(frozen=True)
class TubeBounds:
    """Adaptive inner/outer recovery radii."""

    r_min: float
    r_max: float

    def __post_init__(self):
        if not 0.0 <= self.r_min <= self.r_max:
            raise ValueError("need 0 <= r_min <= r_max")


# ---------------------------------------------------------------------------
# distances to the expert state manifold


def _normalized_psi(states, psi: Callable, scales) -> np.ndarray:
    feats = np.atleast_2d(np.asarray(psi(np.asarray(states, dtype=float)), dtype=float))
    return feats / np.asarray(scales, dtype=float)


def _sq_distances(x: np.ndarray, e: np.ndarray) -> np.ndarray:
    """(..., n, m) squared Euclidean distances between the rows of x
    (..., n, d) and e (m, d), expanded as ||x||^2 - 2 x.e + ||e||^2 and
    floored at 0, in one buffer updated in place.  The product's left
    operand is the fresh array 2 x, so numpy takes the general product
    even when e is x, never its symmetric (syrk) one; keep it so, since
    syrk could change the bits of the DPP kernel.  A stacked x takes one
    small product per leading index; one product over all its rows would
    run BLAS threads, which slowed ``--jobs 2`` runs."""
    d2 = (2.0 * x) @ e.T
    np.subtract(np.sum(x * x, axis=-1)[..., None], d2, out=d2)
    d2 += np.sum(e * e, axis=1)
    return np.maximum(d2, 0.0, out=d2)


def state_distances(states, expert_states, psi: Callable, scales) -> np.ndarray:
    """Per-state nearest-neighbor distance to the expert manifold in the
    normalized task subspace, over states (..., d_s): one state, a
    trajectory's (n, d_s) or a batch of trajectories' (k, n, d_s)."""
    expert_states = np.asarray(expert_states, dtype=float)
    if expert_states.size == 0 or len(expert_states) == 0:
        raise ValueError("expert state sequence must be non-empty")
    x = _normalized_psi(states, psi, scales)          # (..., n, d)
    e = _normalized_psi(expert_states, psi, scales)   # (m, d)
    return np.sqrt(_sq_distances(x, e).min(axis=-1))


def peak_deviation(d: np.ndarray):
    """Largest manifold distance attained along each rollout, from the
    per-state distances ``d`` (``state_distances``) over the last axis."""
    return d.max(axis=-1)


# ---------------------------------------------------------------------------
# quantiles and the adaptive tube


def quantile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation quantile of the sorted values: h = q (n - 1),
    interpolate between the bracketing order statistics."""
    if len(values) == 0:
        raise ValueError("values must be non-empty")
    if not 0.0 <= q <= 1.0:
        raise ValueError("q must lie in [0, 1]")
    v = sorted(float(x) for x in values)
    h = q * (len(v) - 1)
    lo = math.floor(h)
    if lo == len(v) - 1:
        return v[-1]
    return v[lo] + (h - lo) * (v[lo + 1] - v[lo])


MIN_SUCCESSES_FOR_TUBE = 5


def compute_tube(peaks: Sequence[float], q_min: float, q_max: float,
                 previous: Optional[TubeBounds] = None) -> TubeBounds:
    """Tube radii as low/high quantiles of successful peak deviations.
    Batches with fewer than 5 successes reuse the previous tube to avoid
    unstable quantile estimates."""
    if not q_min < q_max:
        raise ValueError("need q_min < q_max")
    if len(peaks) < MIN_SUCCESSES_FOR_TUBE:
        if previous is None:
            raise TubeUnavailableError(
                f"only {len(peaks)} successes and no previous tube to fall back on")
        return previous
    return TubeBounds(r_min=quantile(peaks, q_min), r_max=quantile(peaks, q_max))


def tube_reward(d: np.ndarray, tube: TubeBounds):
    """Mean over timesteps of 1 - relu(r_min - d_t) - relu(d_t - r_max),
    from the per-state distances ``d`` (``state_distances``) over the last
    axis: highest when deviations stay inside the informative recovery
    band."""
    inner = np.maximum(tube.r_min - d, 0.0)
    outer = np.maximum(d - tube.r_max, 0.0)
    return np.mean(1.0 - inner - outer, axis=-1)


# ---------------------------------------------------------------------------
# trajectory embedding and diversity selection


@lru_cache(maxsize=32)
def dct2_matrix(n: int) -> np.ndarray:
    """Orthonormal type-II DCT matrix: D[k, t] = s_k cos(pi (2t+1) k / 2n).
    Memoised per n; the returned array is read-only, since callers share
    it."""
    t = np.arange(n)
    k = np.arange(n)[:, None]
    d = np.cos(np.pi * (2 * t + 1) * k / (2 * n))
    d[0] *= np.sqrt(1.0 / n)
    d[1:] *= np.sqrt(2.0 / n)
    d.flags.writeable = False
    return d


def dct_embed(states: np.ndarray, actions: np.ndarray, psi: Callable, scales,
              t_tilde: int, k_dct: int) -> np.ndarray:
    """Low-frequency descriptors (n, k_dct f) of n trajectories, states
    (n, T+1, d_s) and actions (n, T, d_a), from each one's per-step
    feature sequence [psi(s_t)/scales ; a_t] of f features: pad (repeating
    the last feature) or truncate to t_tilde rows, apply the orthonormal
    DCT-II per column, drop the DC row, and keep the next k_dct
    coefficient rows, vectorized column-major."""
    if k_dct + 1 > t_tilde:
        raise ValueError("k_dct must leave room below t_tilde (k_dct + 1 <= t_tilde)")
    feats = _normalized_psi(np.asarray(states, dtype=float)[:, :-1], psi, scales)
    x = np.concatenate([feats, np.asarray(actions, dtype=float)], axis=-1)
    steps = x.shape[1]
    if steps == 0:
        raise ValueError("trajectory must be non-empty")
    if steps < t_tilde:
        x = np.concatenate([x, np.repeat(x[:, -1:], t_tilde - steps, axis=1)], axis=1)
    coeffs = dct2_matrix(t_tilde)[1:k_dct + 1] @ x[:, :t_tilde]
    return coeffs.transpose(0, 2, 1).reshape(len(x), -1)


def median_pairwise_distance(embeddings: Sequence[np.ndarray]) -> float:
    """Median heuristic bandwidth; falls back to 1.0 when degenerate.
    The median is np.median's, the mean of the one or two middle values,
    taken without its NaN check, which imports numpy.ma."""
    e = np.asarray(embeddings, dtype=float)
    if len(e) < 2:
        return 1.0
    iu = np.triu_indices(len(e), k=1)
    d = np.sqrt(_sq_distances(e, e)[iu])
    lo, hi = (len(d) - 1) // 2, len(d) // 2
    med = float(np.mean(np.partition(d, [lo, hi])[lo:hi + 1]))
    return med if med > 0.0 else 1.0


def build_kernel(embeddings: Sequence[np.ndarray], sigma_rbf: float) -> np.ndarray:
    """RBF similarity kernel L_ij = exp(-||phi_i - phi_j||^2 / 2 sigma^2)
    with unit diagonal."""
    if sigma_rbf <= 0:
        raise ValueError("sigma_rbf must be positive")
    e = np.asarray(embeddings, dtype=float)
    if e.ndim != 2:
        raise ValueError("embeddings must have equal lengths")
    kernel = np.exp(-_sq_distances(e, e) / (2.0 * sigma_rbf ** 2))
    kernel = 0.5 * (kernel + kernel.T)
    np.fill_diagonal(kernel, 1.0)
    return kernel


def dpp_select_greedy(kernel: np.ndarray, m: int, eps: float = 1e-6) -> List[int]:
    """Greedy maximization of log det(L_S + eps I): each round adds the
    index with the largest marginal gain, computed as the log of the new
    Cholesky pivot of the regularized kernel.  Ties break to the lowest
    index.  Returns min(m, n) indices in selection order."""
    if m < 1:
        raise ValueError("m must be >= 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    kernel = np.asarray(kernel, dtype=float)
    n = kernel.shape[0]
    m = min(m, n)
    # residual pivots of L + eps I under the current conditioning
    d = np.diag(kernel).copy() + eps
    cis = np.zeros((m, n))
    selected: List[int] = []
    for step in range(m):
        j = int(np.argmax(d))
        selected.append(j)
        if step == m - 1:
            break
        pivot = math.sqrt(max(d[j], 1e-300))
        row = kernel[j].copy()
        row[j] += eps
        e = (row - cis[:step].T @ cis[:step, j]) / pivot
        cis[step] = e
        d = d - e * e
        d[selected] = -np.inf
    return selected


# ---------------------------------------------------------------------------
# reward weighting and the proposal refit


def reward_to_weight(rewards: Sequence[float], temperature: float) -> np.ndarray:
    """Softmax-style weights exp((R_i - max R) / temperature): strictly
    monotone in the reward, max weight 1."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    r = np.asarray(rewards, dtype=float)
    return np.exp((r - r.max()) / temperature)


def update_proposal(q: Proposal, selected_c: Sequence[np.ndarray], weights,
                    eps_stab: float, delta: float) -> Proposal:
    """Weighted moment matching over the retained control points; only the
    diagonal of the refit covariance is kept, floored by the variance
    floor delta."""
    if len(selected_c) == 0:
        raise ValueError("need at least one selected control-point vector")
    c = np.asarray(selected_c, dtype=float).reshape(len(selected_c), -1)
    w = np.asarray(weights, dtype=float)
    if w.shape != (len(c),) or np.any(w < 0):
        raise ValueError("weights must be non-negative, one per selected point")
    denom = w.sum() + eps_stab
    mu = (w[:, None] * c).sum(axis=0) / denom
    var = (w[:, None] * (c - mu) ** 2).sum(axis=0) / denom + delta
    return Proposal(mean=mu, std=np.sqrt(var), m_points=q.m_points,
                    action_dim=q.action_dim)
