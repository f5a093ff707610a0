"""Curation machinery checked against independent oracles: brute-force
nearest-neighbor scans, a re-derived interpolation quantile, an explicit
O(n^2) DCT matrix, exhaustive log-det subset search, and hand-evaluated
moment-matching formulas."""
import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from recovergen import curator
from recovergen.config import PipelineConfig
from recovergen.curator import (MIN_SUCCESSES_FOR_TUBE, TubeBounds,
                                TubeUnavailableError, build_kernel,
                                compute_tube, dct2_matrix, dct_embed,
                                dpp_select_greedy, median_pairwise_distance,
                                peak_deviation, quantile, reward_to_weight,
                                state_distances, tube_reward, update_proposal)
from recovergen.envs import make_env
from recovergen.pipeline import run_variant, sample_variant_poses
from recovergen.sampler import Proposal

IDENT = lambda s: np.asarray(s, dtype=float)  # noqa: E731


def manifold_distance(s, expert_states, psi, scales) -> float:
    """min_j ||psi(s) - psi(s_e_j)|| in the normalized task subspace: the
    one-state form of ``state_distances``."""
    return float(state_distances(np.asarray(s, dtype=float)[None, :],
                                 expert_states, psi, scales)[0])


def dpp_log_det(kernel, subset, eps=1e-6) -> float:
    """log det(K_S + eps I), or -inf where that matrix is not positive
    definite: the objective ``dpp_select_greedy`` maximizes greedily."""
    sub = np.asarray(kernel)[np.ix_(subset, subset)] + eps * np.eye(len(subset))
    sign, val = np.linalg.slogdet(sub)
    return float(val) if sign > 0 else -np.inf


# ---------------------------------------------------------------------------
# manifold distance


def test_distance_zero_on_membership():
    experts = np.array([[0.0, 0.0], [1.0, 1.0]])
    assert manifold_distance([1.0, 1.0], experts, IDENT, [1.0, 1.0]) == 0.0


def test_distance_1d_nearest_neighbor():
    experts = np.array([[0.0], [1.0]])
    assert np.isclose(manifold_distance([0.4], experts, IDENT, [1.0]), 0.4)


def test_distance_applies_scales():
    experts = np.array([[0.0, 0.0]])
    d = manifold_distance([0.2, 0.0], experts, IDENT, [0.1, 1.0])
    assert np.isclose(d, 2.0)  # 0.2 m in 0.1 m units


def test_distance_matches_bruteforce_scan():
    rng = np.random.default_rng(0)
    experts = rng.standard_normal((50, 3))
    scales = np.array([0.5, 1.0, 2.0])
    for _ in range(20):
        s = rng.standard_normal(3)
        oracle = min(np.linalg.norm(s / scales - e / scales) for e in experts)
        assert np.isclose(manifold_distance(s, experts, IDENT, scales), oracle,
                          atol=1e-12)


def test_state_distances_vectorized_matches_loop():
    rng = np.random.default_rng(1)
    experts = rng.standard_normal((30, 2))
    states = rng.standard_normal((15, 2))
    batch = state_distances(states, experts, IDENT, [1.0, 1.0])
    loop = [manifold_distance(s, experts, IDENT, [1.0, 1.0]) for s in states]
    assert np.allclose(batch, loop, atol=1e-12)


def test_distance_rejects_empty_experts():
    with pytest.raises(ValueError):
        manifold_distance([0.0], np.zeros((0, 1)), IDENT, [1.0])


def test_peak_deviation_replay_is_zero():
    experts = np.array([[0.0], [0.5], [1.0]])
    assert peak_deviation(state_distances(experts, experts, IDENT, [1.0])) == 0.0


def test_peak_deviation_single_spike():
    experts = np.array([[0.0], [1.0]])
    states = np.array([[0.0], [0.5], [1.0]])
    assert np.isclose(peak_deviation(state_distances(states, experts, IDENT, [1.0])), 0.5)


def test_peak_deviation_matches_bruteforce_max():
    rng = np.random.default_rng(2)
    experts = rng.standard_normal((20, 2))
    states = rng.standard_normal((12, 2))
    oracle = max(manifold_distance(s, experts, IDENT, [1.0, 1.0]) for s in states)
    d = state_distances(states, experts, IDENT, [1.0, 1.0])
    assert np.isclose(peak_deviation(d), oracle, atol=1e-12)


# ---------------------------------------------------------------------------
# quantile


def test_quantile_endpoints_exact():
    v = [3.0, 1.0, 2.0]
    assert quantile(v, 0.0) == 1.0
    assert quantile(v, 1.0) == 3.0


def test_quantile_worked_example():
    assert np.isclose(quantile([0.1, 0.2, 0.3, 0.4, 0.5], 0.8), 0.42, atol=1e-12)


def test_quantile_singleton():
    assert quantile([7.0], 0.3) == 7.0


def test_quantile_rejects_bad_input():
    with pytest.raises(ValueError):
        quantile([], 0.5)
    with pytest.raises(ValueError):
        quantile([1.0], 1.5)


@given(st.lists(st.floats(-100, 100), min_size=1, max_size=40),
       st.floats(0.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_quantile_matches_numpy_linear(values, q):
    assert np.isclose(quantile(values, q),
                      np.quantile(np.asarray(values), q, method="linear"),
                      atol=1e-12)


@given(st.lists(st.floats(-10, 10), min_size=1, max_size=20),
       st.floats(0.0, 1.0), st.floats(0.0, 1.0))
@settings(max_examples=100, deadline=None)
def test_quantile_monotone_in_q(values, q1, q2):
    lo, hi = sorted((q1, q2))
    assert quantile(values, lo) <= quantile(values, hi) + 1e-12


# ---------------------------------------------------------------------------
# tube


def test_compute_tube_quantile_bounds():
    peaks = [0.1, 0.2, 0.3, 0.4, 0.5]
    tube = compute_tube(peaks, 0.2, 0.8)
    assert np.isclose(tube.r_min, quantile(peaks, 0.2))
    assert np.isclose(tube.r_max, quantile(peaks, 0.8))


def test_compute_tube_degenerate_peaks():
    tube = compute_tube([0.3] * 6, 0.2, 0.8)
    assert tube.r_min == tube.r_max == 0.3


def test_compute_tube_fallback_returns_previous():
    prev = TubeBounds(0.1, 0.5)
    tube = compute_tube([0.9, 0.8, 0.7, 0.6], 0.2, 0.8, previous=prev)
    assert tube is prev


def test_compute_tube_first_iteration_starvation_raises():
    with pytest.raises(TubeUnavailableError):
        compute_tube([0.1, 0.2], 0.2, 0.8, previous=None)


def test_compute_tube_rejects_inverted_quantiles():
    with pytest.raises(ValueError):
        compute_tube([0.1] * 6, 0.8, 0.2)


def test_tube_bounds_validation():
    with pytest.raises(ValueError):
        TubeBounds(0.5, 0.1)


# ---------------------------------------------------------------------------
# tube reward


def test_tube_reward_all_in_band():
    experts = np.array([[0.0]])
    states = np.array([[0.2], [0.3], [0.25]])
    r = tube_reward(state_distances(states, experts, IDENT, [1.0]), TubeBounds(0.1, 0.5))
    assert np.isclose(r, 1.0, atol=1e-12)


def test_tube_reward_uniform_outer_violation():
    experts = np.array([[0.0]])
    g = 0.3
    states = np.full((4, 1), 0.5 + g)
    r = tube_reward(state_distances(states, experts, IDENT, [1.0]), TubeBounds(0.1, 0.5))
    assert np.isclose(r, 1.0 - g, atol=1e-12)


def test_tube_reward_uniform_inner_violation():
    experts = np.array([[0.0]])
    states = np.full((3, 1), 0.1)  # d = 0.1, r_min = 0.6 -> hinge 0.5
    r = tube_reward(state_distances(states, experts, IDENT, [1.0]), TubeBounds(0.6, 0.8))
    assert np.isclose(r, 0.5, atol=1e-12)


def test_tube_reward_never_exceeds_one():
    rng = np.random.default_rng(3)
    experts = rng.standard_normal((10, 1))
    for _ in range(20):
        d = state_distances(rng.standard_normal((8, 1)), experts, IDENT, [1.0])
        r = tube_reward(d, TubeBounds(0.1, 0.4))
        assert r <= 1.0 + 1e-12


# ---------------------------------------------------------------------------
# DCT embedding


def test_dct2_matrix_is_orthonormal():
    for n in (4, 9, 16):
        d = dct2_matrix(n)
        assert np.allclose(d @ d.T, np.eye(n), atol=1e-10)


def test_dct2_matrix_is_shared_and_read_only():
    d = dct2_matrix(21)
    assert dct2_matrix(21) is d
    with pytest.raises(ValueError):
        d[1, 0] = 5.0
    assert dct2_matrix(22) is not d


def test_dct_embed_constant_sequence_is_zero():
    (phi,) = dct_embed(np.full((1, 13, 2), 0.7), np.full((1, 12, 1), -0.2), IDENT,
                       [1.0, 1.0], t_tilde=12, k_dct=5)
    assert np.allclose(phi, 0.0, atol=1e-10)
    assert phi.shape == (5 * 3,)  # k_dct rows x (psi dim + action dim)


def test_dct_embed_single_frequency_single_coefficient():
    t_tilde = 16
    t = np.arange(t_tilde)
    signal = np.cos(np.pi * (2 * t + 1) * 1 / (2 * t_tilde))
    states = np.concatenate([signal, [0.0]])[:, None]  # extra terminal state
    (phi,) = dct_embed(states[None], np.zeros((1, t_tilde, 1)), IDENT, [1.0],
                       t_tilde=t_tilde, k_dct=4)
    # feature column 0 is the signal: frequency-1 coefficient only
    col = phi[:4]
    assert abs(col[0]) > 0.1
    assert np.allclose(col[1:], 0.0, atol=1e-8)
    assert np.allclose(phi[4:], 0.0, atol=1e-10)  # zero action column


def test_dct_embed_matches_direct_matrix_transform():
    rng = np.random.default_rng(4)
    t_tilde, k_dct = 14, 6
    states = rng.standard_normal((t_tilde + 1, 2))
    actions = rng.standard_normal((t_tilde, 1))
    scales = np.array([0.5, 2.0])
    x = np.concatenate([states[:-1] / scales, actions], axis=1)
    # explicit cosine sum: sqrt(2/n) sum_t x_t cos(pi (2t+1) k / 2n), k >= 1
    oracle = [math.sqrt(2.0 / t_tilde)
              * sum(x[t, col] * math.cos(math.pi * (2 * t + 1) * k / (2 * t_tilde))
                    for t in range(t_tilde))
              for col in range(x.shape[1]) for k in range(1, k_dct + 1)]
    (phi,) = dct_embed(states[None], actions[None], IDENT, scales,
                       t_tilde=t_tilde, k_dct=k_dct)
    assert np.allclose(phi, oracle, atol=1e-10)


def test_dct_embed_padding_repeats_final_feature():
    # two trajectories equal on their common span, one padded: identical phi
    short = np.array([[[0.1], [0.4], [0.4]]]), np.array([[[0.3], [0.0]]])
    long = (np.array([[[0.1], [0.4], [0.4], [0.4], [0.4]]]),
            np.array([[[0.3], [0.0], [0.0], [0.0]]]))
    (a,) = dct_embed(*short, IDENT, [1.0], t_tilde=8, k_dct=3)
    (b,) = dct_embed(*long, IDENT, [1.0], t_tilde=8, k_dct=3)
    assert np.allclose(a, b, atol=1e-12)


def test_dct_embed_energy_conservation_with_all_coefficients():
    rng = np.random.default_rng(5)
    t_tilde = 10
    for _ in range(20):
        x = rng.standard_normal((t_tilde, 3))
        coeffs = dct2_matrix(t_tilde) @ x
        assert np.allclose(np.linalg.norm(coeffs, axis=0),
                           np.linalg.norm(x, axis=0), atol=1e-10)


def test_dct_embed_rejects_too_many_frequencies():
    with pytest.raises(ValueError):
        dct_embed(np.zeros((1, 5, 1)), np.zeros((1, 4, 1)), IDENT, [1.0], t_tilde=4, k_dct=4)


# ---------------------------------------------------------------------------
# kernel


def test_kernel_identical_embeddings_all_ones():
    e = [np.array([1.0, 2.0])] * 4
    k = build_kernel(e, 1.0)
    assert np.allclose(k, 1.0, atol=1e-12)


def test_kernel_exponent_minus_one_case():
    sigma = 0.7
    e = [np.zeros(2), np.array([sigma * np.sqrt(2.0), 0.0])]
    k = build_kernel(e, sigma)
    assert np.isclose(k[0, 1], np.exp(-1.0), atol=1e-12)


def test_kernel_large_bandwidth_limit():
    rng = np.random.default_rng(6)
    e = list(rng.standard_normal((5, 3)))
    k = build_kernel(e, 1e8)
    assert np.allclose(k, 1.0, atol=1e-10)


def test_kernel_structure():
    rng = np.random.default_rng(7)
    e = list(rng.standard_normal((6, 4)))
    k = build_kernel(e, 1.3)
    assert np.allclose(k, k.T, atol=1e-12)
    assert np.allclose(np.diag(k), 1.0)
    assert np.all((k > 0.0) & (k <= 1.0))
    assert np.all(np.linalg.eigvalsh(k) > -1e-10)  # PSD


def test_kernel_rejects_bad_inputs():
    with pytest.raises(ValueError):
        build_kernel([np.zeros(2), np.zeros(2)], 0.0)
    with pytest.raises(ValueError):
        build_kernel([np.zeros(2), np.zeros(3)], 1.0)


def test_median_pairwise_distance():
    e = [np.array([0.0]), np.array([1.0]), np.array([3.0])]
    # pairwise distances 1, 3, 2 -> median 2
    assert np.isclose(median_pairwise_distance(e), 2.0)
    assert median_pairwise_distance([np.zeros(2)]) == 1.0       # degenerate
    assert median_pairwise_distance([np.zeros(2)] * 5) == 1.0   # all equal


@pytest.mark.parametrize("grid", [False, True])
@pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 20])
def test_median_pairwise_distance_bitwise_equals_np_median(n, grid):
    """The partition-based median has np.median's bits for an odd and an
    even number of pairs (n(n-1)/2), also where distances tie: the grid
    embeddings sit on a 3 x 3 lattice, so many pairs share a distance."""
    rng = np.random.default_rng(n)
    e = rng.integers(0, 3, (n, 2)).astype(float) if grid else rng.standard_normal((n, 3))
    d = np.sqrt(curator._sq_distances(e, e)[np.triu_indices(n, k=1)])
    ref = float(np.median(d))
    assert median_pairwise_distance(e).hex() == (ref if ref > 0.0 else 1.0).hex()
    if grid and n >= 5:
        assert len(np.unique(d)) < len(d)


# ---------------------------------------------------------------------------
# greedy DPP selection


def test_dpp_identity_kernel_lowest_index_tiebreak():
    assert dpp_select_greedy(np.eye(5), 3) == [0, 1, 2]


def test_dpp_m_capped_at_n():
    assert sorted(dpp_select_greedy(np.eye(3), 10)) == [0, 1, 2]


def test_dpp_rejects_bad_args():
    with pytest.raises(ValueError):
        dpp_select_greedy(np.eye(3), 0)
    with pytest.raises(ValueError):
        dpp_select_greedy(np.eye(3), 1, eps=0.0)


def test_dpp_duplicate_deferred_in_3x3_closed_form():
    # items 0 and 1 identical, item 2 orthogonal: after picking one
    # duplicate, the twin's marginal gain collapses to ~log(eps) while the
    # orthogonal item keeps gain ~log(1 + eps)
    k = np.array([[1.0, 1.0, 0.0],
                  [1.0, 1.0, 0.0],
                  [0.0, 0.0, 1.0]])
    sel = dpp_select_greedy(k, 2, eps=1e-6)
    assert sel == [0, 2]


def test_dpp_greedy_matches_exhaustive_on_diagonal_kernels():
    # on diagonal PSD kernels the objective is separable, so greedy is
    # provably optimal; compare against brute-force subset search
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(4, 9))
        m = int(rng.integers(1, 4))
        diag = np.sort(rng.uniform(0.1, 2.0, n))[::-1]
        rng.shuffle(diag)
        k = np.diag(diag)
        sel = dpp_select_greedy(k, m, eps=1e-6)
        best = max(itertools.combinations(range(n), m),
                   key=lambda s: dpp_log_det(k, s, 1e-6))
        assert sorted(sel) == sorted(best)


def test_dpp_marginal_gains_nonincreasing():
    # submodularity: the added log-det gain shrinks along the greedy path
    rng = np.random.default_rng(9)
    for _ in range(10):
        e = list(rng.standard_normal((8, 3)))
        k = build_kernel(e, 1.0)
        sel = dpp_select_greedy(k, 6, eps=1e-6)
        gains = []
        for i in range(1, len(sel) + 1):
            prev = dpp_log_det(k, sel[:i - 1], 1e-6) if i > 1 else 0.0
            gains.append(dpp_log_det(k, sel[:i], 1e-6) - prev)
        assert all(g1 >= g2 - 1e-9 for g1, g2 in zip(gains, gains[1:]))


def test_dpp_matches_cholesky_free_greedy_oracle():
    # independent oracle: re-run greedy with explicit log-det evaluations
    rng = np.random.default_rng(10)
    for _ in range(10):
        e = list(rng.standard_normal((7, 4)))
        k = build_kernel(e, 1.5)
        m = 4
        sel = dpp_select_greedy(k, m, eps=1e-6)
        oracle = []
        for _ in range(m):
            gains = [(dpp_log_det(k, oracle + [j], 1e-6), -j)
                     for j in range(7) if j not in oracle]
            best = max(gains)
            oracle.append(-best[1])
        assert sel == oracle


# ---------------------------------------------------------------------------
# reward weights and the proposal update


def test_weights_shift_invariant_and_bounded():
    w = reward_to_weight([0.3, 0.3, 0.3], 0.25)
    assert np.allclose(w, 1.0)
    w = reward_to_weight([1.0, 0.0], 1.0)
    assert np.allclose(w, [1.0, np.exp(-1.0)], atol=1e-12)


def test_weights_preserve_reward_ordering():
    rng = np.random.default_rng(11)
    for temp in (0.1, 1.0, 100.0):
        r = rng.standard_normal(10)
        w = reward_to_weight(r, temp)
        assert np.array_equal(np.argsort(w), np.argsort(r))


def test_weights_large_temperature_limit():
    w = reward_to_weight([5.0, -5.0], 1e9)
    assert np.allclose(w, 1.0, atol=1e-8)


def test_weights_reject_nonpositive_temperature():
    with pytest.raises(ValueError):
        reward_to_weight([1.0], 0.0)


def _proposal(dim=4):
    return Proposal(mean=np.zeros(dim), std=np.ones(dim),
                    m_points=dim, action_dim=1)


def test_update_uniform_weights_zero_eps_reproduces_moments():
    rng = np.random.default_rng(12)
    for _ in range(30):
        c = rng.standard_normal((6, 4))
        q2 = update_proposal(_proposal(), list(c), np.ones(6),
                             eps_stab=0.0, delta=0.0)
        assert np.allclose(q2.mean, c.mean(axis=0), atol=1e-10)
        assert np.allclose(q2.std ** 2, c.var(axis=0), atol=1e-10)


def test_update_hand_evaluated_1d_fixture():
    # single point c = 1, weight 1, eps = delta = 1e-3:
    #   mu' = 1 / 1.001,  var' = (1 - 1/1.001)^2 / 1.001 + 1e-3
    q2 = update_proposal(Proposal(mean=np.zeros(1), std=np.ones(1),
                                  m_points=1, action_dim=1),
                         [np.array([1.0])], [1.0],
                         eps_stab=1e-3, delta=1e-3)
    mu = 1.0 / 1.001
    var = (1.0 - mu) ** 2 / 1.001 + 1e-3
    assert q2.mean[0] == mu
    assert q2.std[0] == math.sqrt(var)


def test_update_sigma_floor():
    rng = np.random.default_rng(13)
    delta = 1e-3
    for _ in range(20):
        c = rng.standard_normal((5, 3)) * 1e-6  # nearly collapsed batch
        q2 = update_proposal(Proposal(mean=np.zeros(3), std=np.ones(3),
                                      m_points=3, action_dim=1),
                             list(c), rng.uniform(0, 1, 5), eps_stab=1e-3, delta=delta)
        assert np.all(q2.std >= math.sqrt(delta) - 1e-15)


def test_update_empty_selection_raises():
    # dpp_select_greedy returns at least one index, so the pipeline never
    # refits on nothing
    with pytest.raises(ValueError, match="at least one"):
        update_proposal(_proposal(), [], [], eps_stab=1e-3, delta=1e-3)


def test_update_all_zero_weights_formula():
    q2 = update_proposal(_proposal(), [np.ones(4), 2 * np.ones(4)],
                         [0.0, 0.0], eps_stab=1e-3, delta=1e-3)
    assert np.array_equal(q2.mean, np.zeros(4))  # mass / (0 + eps) = 0
    assert np.array_equal(q2.std, np.full(4, math.sqrt(1e-3)))  # 0 / eps + delta


def test_update_rejects_bad_weights():
    with pytest.raises(ValueError):
        update_proposal(_proposal(), [np.ones(4)], [-1.0], eps_stab=1e-3, delta=1e-8)
    with pytest.raises(ValueError):
        update_proposal(_proposal(), [np.ones(4)], [1.0, 1.0], eps_stab=1e-3, delta=1e-8)


# ---------------------------------------------------------------------------
# the batched forms the variant loop calls, against the per-trajectory forms


def per_trajectory_embed(states, actions, psi, scales, t_tilde, k_dct):
    """``dct_embed`` of one trajectory, as it was computed one at a time."""
    x = np.concatenate([np.atleast_2d(psi(states[:-1])) / np.asarray(scales), actions],
                       axis=1)
    if len(x) < t_tilde:
        x = np.concatenate([x, np.repeat(x[-1:], t_tilde - len(x), axis=0)])
    return (dct2_matrix(t_tilde)[1:k_dct + 1] @ x[:t_tilde]).reshape(-1, order="F")


def test_batched_curator_equals_per_trajectory_forms(monkeypatch):
    # the variant loop scores and embeds each batch with one call of each
    # function; on the real first-iteration batches of seeds 1-10 every row
    # equals, bit for bit, the per-trajectory form the batched call replaced
    calls = {name: [] for name in ("state_distances", "peak_deviation", "tube_reward",
                                   "dct_embed")}
    for name, recorded in calls.items():
        def wrapped(*args, _real=getattr(curator, name), _recorded=recorded):
            out = _real(*args)
            _recorded.append((args, out))
            return out
        monkeypatch.setattr(curator, name, wrapped)
    for seed in range(1, 11):
        cfg = PipelineConfig(seed=seed, iterations=1)
        env = make_env(cfg.env)
        seeds = np.random.SeedSequence(seed).spawn(cfg.n_variants + 2)
        poses = sample_variant_poses(env, cfg, np.random.default_rng(seeds[0]))
        for i, (pose, seed_seq) in enumerate(zip(poses, seeds[1:])):
            run_variant(env, cfg, i, pose, seed_seq)
    monkeypatch.undo()

    # one call of each per scored batch; a first batch that is scored is
    # never empty
    assert len({len(c) for c in calls.values()}) == 1 and len(calls["dct_embed"]) >= 30
    bits = lambda x: np.asarray(x, dtype=float).tobytes()  # noqa: E731
    for (d_args, dists), (_, peaks), ((_, tube), rewards), (e_args, embeddings) \
            in zip(*calls.values()):
        states, actions, psi, scales, t_tilde, k_dct = e_args
        expert = d_args[1]
        assert bits(d_args[0]) == bits(states)
        assert dists.shape == states.shape[:2]
        for j in range(len(states)):
            d = curator.state_distances(states[j], expert, psi, scales)
            assert bits(dists[j]) == bits(d)
            assert bits(peaks[j]) == bits(float(d.max()))
            reward = np.mean(1.0 - np.maximum(tube.r_min - d, 0.0)
                             - np.maximum(d - tube.r_max, 0.0))
            assert bits(rewards[j]) == bits(float(reward))
            assert bits(embeddings[j]) == bits(per_trajectory_embed(
                states[j], actions[j], psi, scales, t_tilde, k_dct))
