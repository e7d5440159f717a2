"""Tiny-input tests of the benchmark's own reference computations.

    python3 -m pytest -q perfbench/test_reference.py
"""

import itertools

import numpy as np

import reference as ref
from spans import self_times


def test_gaussian_condition_scalar_by_hand():
    # prior N(1, 2), y = 3 a + N(0, 0.5), y = 4: precision 1/2 + 9/0.5
    mean, cov = ref.gaussian_condition([1.0], [[2.0]], [[3.0]], [[0.5]],
                                       [4.0])
    assert np.isclose(cov[0, 0], 1 / 18.5)
    assert np.isclose(mean[0], (0.5 + 3 * 4 / 0.5) / 18.5)


def test_gaussian_condition_matches_joint_schur_complement():
    rng = np.random.default_rng(0)
    mu = rng.standard_normal(2)
    root = rng.standard_normal((2, 2))
    sigma = root @ root.T + np.eye(2)
    m = rng.standard_normal((3, 2))
    sigma_y = 0.3 * np.eye(3)
    y = rng.standard_normal(3)
    # condition the joint Gaussian of (a, y) on y
    cross = sigma @ m.T
    gain = cross @ np.linalg.inv(m @ sigma @ m.T + sigma_y)
    mean, cov = ref.gaussian_condition(mu, sigma, m, sigma_y, y)
    assert np.allclose(mean, mu + gain @ (y - m @ mu))
    assert np.allclose(cov, sigma - gain @ cross.T)


def test_true_mask_pattern_reads_nonzeros():
    f_s = np.array([[0.5, 0.0], [-0.7, 0.0]])
    f_a = np.array([[0.0, 1.1]])
    b_s = np.array([0.0, 0.9])
    b_a = np.array([0.0])
    c_ss, c_as, u_sr, u_ar = ref.true_mask_pattern(f_s, f_a, b_s, b_a)
    assert c_ss.tolist() == [[1, 0], [1, 0]]
    assert c_as.tolist() == [[0, 1]]
    assert u_sr.tolist() == [0, 1] and u_ar.tolist() == [0]


def test_optimal_reward_is_best_box_corner():
    f_a = np.array([[1.0, 0.0], [0.0, 2.0], [0.3, -0.1]])
    b_s = np.array([1.0, -1.0])
    b_a = np.array([0.5, 0.5, 0.0])
    coef = f_a @ b_s + b_a
    corners = max(float(np.dot(coef, c))
                  for c in itertools.product((-1.0, 1.0), repeat=3))
    assert np.isclose(ref.optimal_reward(f_a, b_s, b_a), corners)
    assert np.isclose(ref.optimal_reward(f_a, b_s, b_a), 3.4)


def test_parsers_on_tiny_files():
    dataset = "1 1 2\n0.0 0.5 2.0 1.0 0.0\n1.0 -0.5 -1.0 0.0 1.0\n"
    assert ref.parse_dataset_rewards(dataset).tolist() == [2.0, -1.0]
    discovery = ("0.0 0.4 0.0 0.0\n" * 4 + "threshold 0.3\n"
                 "c_ss\n1\nc_as\n0\nu_sr\n1\nu_ar\n0\n")
    masks = ref.parse_discovery_masks(discovery, 1, 1)
    assert [m.tolist() for m in masks] == [[[1.0]], [[0.0]], [1.0], [0.0]]
    assert ref.hamming(masks[0], [[0.0]]) == 1
    assert ref.parse_keyvalues("episodes 3\nmean_return 1.5\n") == \
        {"episodes": 3.0, "mean_return": 1.5}


def test_self_time_subtracts_children():
    # root 0..10 with children 1..3 and 4..8; the second has a child 5..6
    spans = [(1, 0, 0, "a", 1.0, 3.0, True, None),
             (3, 2, 0, "c", 5.0, 6.0, True, None),
             (2, 0, 0, "b", 4.0, 8.0, True, None),
             (0, -1, 0, "root", 0.0, 10.0, True, None)]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}
