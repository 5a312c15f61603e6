import math

import numpy as np
import pytest

from clustercov.mc import inter_sums, radial_sums


def _inter_payload(n_trials=6, clusters_per_trial=7, nodes_per_cluster=5, seed=0):
    rng = np.random.default_rng(seed)
    n_parents = clusters_per_trial * n_trials
    n_nodes = nodes_per_cluster * n_parents
    return dict(
        parent_r=20000.0 * np.sqrt(rng.uniform(size=n_parents)),
        trial_of_parent=np.repeat(np.arange(n_trials, dtype=np.intp), clusters_per_trial),
        node_parent=np.repeat(np.arange(n_parents, dtype=np.intp), nodes_per_cluster),
        off_r=500.0 * np.sqrt(rng.uniform(size=n_nodes)),
        off_th=rng.uniform(0.0, 2.0 * math.pi, size=n_nodes),
        h=rng.exponential(size=n_nodes),
        n_out=n_trials,
    )


def _naive_inter_sums(parent_r, trial_of_parent, node_parent, off_r, off_th, h, n_out, neg_alpha):
    out = [0.0] * n_out
    for i, parent in enumerate(node_parent):
        x = parent_r[parent] + off_r[i] * math.cos(off_th[i])
        y = off_r[i] * math.sin(off_th[i])
        out[trial_of_parent[parent]] += h[i] * math.hypot(x, y) ** neg_alpha
    return np.array(out)


def _naive_radial_sums(r, h, idx, n_out, neg_alpha):
    out = [0.0] * n_out
    for r_i, h_i, trial in zip(r, h, idx):
        out[trial] += h_i * r_i**neg_alpha
    return np.array(out)


@pytest.mark.parametrize("alpha", [3.0, 3.5, 4.2])
def test_inter_sums_matches_naive_loop(alpha):
    payload = _inter_payload()
    got = inter_sums(neg_alpha=-alpha, **payload)
    want = _naive_inter_sums(neg_alpha=-alpha, **payload)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


@pytest.mark.parametrize("alpha", [3.0, 3.5, 4.2])
def test_radial_sums_matches_naive_loop(alpha):
    rng = np.random.default_rng(1)
    r = rng.uniform(1.0, 20000.0, 2000)
    h = rng.exponential(size=2000)
    # leave some trials empty so that the scatter's zero padding is checked
    idx = np.sort(rng.integers(0, 40, 2000)).astype(np.intp)
    got = radial_sums(r, h, idx, 48, -alpha)
    want = _naive_radial_sums(r, h, idx, 48, -alpha)
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


def test_empty_inputs():
    empty_f = np.zeros(0)
    empty_i = np.zeros(0, dtype=np.intp)
    out = radial_sums(empty_f, empty_f, empty_i, 8, -3.5)
    assert out.shape == (8,) and np.all(out == 0.0)
    out = inter_sums(empty_f, empty_i, empty_i, empty_f, empty_f, empty_f, 8, -3.5)
    assert out.shape == (8,) and np.all(out == 0.0)
