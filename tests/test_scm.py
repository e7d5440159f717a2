import numpy as np
import pytest

from cgdp.scm import (GroundTruthScm, Transitions, generate_dataset,
                      load_dataset, random_scm, save_dataset, scm_step)

from references import exact_masks


def per_row_dataset(scm, episodes, horizon, behavior_noise, rng):
    """The row-at-a-time generator loop the columnar one replaced: a list
    of (s, a, r, s_next, done) tuples."""
    gain = rng.normal(0.0, 0.3, size=(scm.n, scm.d))
    rows = []
    for _ in range(episodes):
        s = rng.standard_normal(scm.n)
        for t in range(horizon):
            a = s @ gain + behavior_noise * rng.standard_normal(scm.d)
            a = np.clip(a, -1.0, 1.0)
            s_next, r = scm_step(scm, s, a, rng)
            rows.append((s.copy(), a, r, s_next.copy(), t == horizon - 1))
            s = s_next
    return rows


def noiseless_scm(n=2, d=1):
    return GroundTruthScm(f_s=0.5 * np.eye(n),
                          f_a=np.ones((d, n)),
                          b_s=np.ones(n), b_a=np.zeros(d),
                          sigma_s=np.zeros((n, n)), sigma_r=0.0)


class TestGenerateDataset:
    def test_noiseless_linear_recursion_is_exact(self):
        scm = noiseless_scm()
        data = generate_dataset(scm, 2, 4, 0.0, np.random.default_rng(0))
        for s, a, r, s_next in zip(data.s, data.a, data.r, data.s_next):
            expect_next = s @ scm.f_s + a @ scm.f_a
            expect_r = expect_next @ scm.b_s + a @ scm.b_a
            assert np.allclose(s_next, expect_next, atol=1e-14)
            assert abs(r - expect_r) < 1e-12

    def test_seed_determinism(self):
        scm = random_scm(3, 2, 2, rng=np.random.default_rng(1))
        d1 = generate_dataset(scm, 5, 5, 1.0, np.random.default_rng(5))
        d2 = generate_dataset(scm, 5, 5, 1.0, np.random.default_rng(5))
        for col in ("s", "a", "r", "s_next", "done"):
            assert np.array_equal(getattr(d1, col), getattr(d2, col))

    @pytest.mark.parametrize("episodes, horizon", [(0, 3), (1, 1), (7, 5)])
    def test_columns_match_the_per_row_loop(self, episodes, horizon):
        scm = random_scm(4, 3, 2, rng=np.random.default_rng(4))
        rng1, rng2 = np.random.default_rng(9), np.random.default_rng(9)
        data = generate_dataset(scm, episodes, horizon, 1.5, rng1)
        rows = per_row_dataset(scm, episodes, horizon, 1.5, rng2)
        assert len(data) == len(rows) == episodes * horizon
        cols = list(zip(*rows)) or [()] * 5
        for col, ref, shape in zip(("s", "a", "r", "s_next", "done"), cols,
                                   ((4,), (3,), (), (4,), ())):
            got = getattr(data, col)
            want = np.array(ref, dtype=float).reshape((len(rows),) + shape)
            assert got.dtype == np.float64 and got.shape == want.shape
            assert np.array_equal(got, want), col
        assert rng1.bit_generator.state == rng2.bit_generator.state

    def test_zero_fa_column_has_no_partial_effect(self):
        rng = np.random.default_rng(2)
        scm = random_scm(4, 3, 2, rng=rng)
        dead = [j for j in range(scm.d) if not np.any(scm.f_a[j])]
        assert dead, "instance needs a non-causal action coordinate"
        data = generate_dataset(scm, 2000, 5, 1.5, rng)
        s, a, s_next = data.s, data.a, data.s_next
        feats = np.concatenate([s, a], axis=1)
        coefs, _, _, _ = np.linalg.lstsq(feats, s_next, rcond=None)
        for j in dead:
            assert np.all(np.abs(coefs[scm.n + j]) < 0.05)

    def test_residual_covariance_matches_truth(self):
        rng = np.random.default_rng(3)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 2000, 5, 1.5, rng)
        s, a, s_next = data.s, data.a, data.s_next
        resid = s_next - (s @ scm.f_s + a @ scm.f_a)
        emp = resid.T @ resid / len(data)
        rel = np.linalg.norm(emp - scm.sigma_s) / np.linalg.norm(scm.sigma_s)
        assert rel < 0.10

    def test_invalid_arguments(self):
        scm = noiseless_scm()
        with pytest.raises(ValueError):
            generate_dataset(scm, -1, 5, 0.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            generate_dataset(scm, 1, 5, -0.1, np.random.default_rng(0))


class TestExactMasks:
    def test_diagonal_fs_zero_fa(self):
        scm = GroundTruthScm(np.eye(2), np.zeros((1, 2)), np.ones(2),
                             np.zeros(1), np.eye(2), 1.0)
        masks = exact_masks(scm)
        assert np.array_equal(masks.c_ss, np.eye(2))
        assert np.all(masks.c_as == 0)
        assert np.all(masks.u_ar == 0)

    def test_dense_operators_all_ones(self):
        scm = GroundTruthScm(np.full((2, 2), 0.3), np.full((1, 2), 0.3),
                             np.ones(2), np.ones(1), np.eye(2), 1.0)
        masks = exact_masks(scm)
        for arr in (masks.c_ss, masks.c_as, masks.u_sr, masks.u_ar):
            assert np.all(arr == 1)

    def test_invariant_under_rescaling(self):
        rng = np.random.default_rng(4)
        scm = random_scm(4, 3, 2, rng=rng)
        scaled = GroundTruthScm(3.0 * scm.f_s, 0.1 * scm.f_a, 7.0 * scm.b_s,
                                2.0 * scm.b_a, scm.sigma_s, scm.sigma_r)
        m1, m2 = exact_masks(scm), exact_masks(scaled)
        assert np.array_equal(m1.c_ss, m2.c_ss)
        assert np.array_equal(m1.c_as, m2.c_as)
        assert np.array_equal(m1.u_sr, m2.u_sr)
        assert np.array_equal(m1.u_ar, m2.u_ar)


class TestScmValidation:
    def test_rejects_asymmetric_covariance(self):
        with pytest.raises(ValueError):
            GroundTruthScm(np.eye(2), np.zeros((1, 2)), np.zeros(2),
                           np.zeros(1), np.array([[1.0, 0.5], [0.0, 1.0]]),
                           1.0)

    def test_rejects_negative_reward_variance(self):
        with pytest.raises(ValueError):
            GroundTruthScm(np.eye(2), np.zeros((1, 2)), np.zeros(2),
                           np.zeros(1), np.eye(2), -1.0)


class TestDatasetRoundTrip:
    def test_bit_exact_round_trip(self, tmp_path):
        rng = np.random.default_rng(6)
        scm = random_scm(3, 2, 2, rng=rng)
        data = generate_dataset(scm, 10, 5, 1.5, rng)
        path = tmp_path / "data.txt"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        assert len(loaded) == len(data)
        for col in ("s", "a", "r", "s_next", "done"):
            assert np.array_equal(getattr(loaded, col), getattr(data, col))
        save_dataset(loaded, str(tmp_path / "again.txt"))
        assert (tmp_path / "again.txt").read_bytes() == path.read_bytes()

    def test_empty_dataset_round_trips_its_dims(self, tmp_path):
        path = tmp_path / "empty.txt"
        save_dataset(Transitions.zeros(0, 3, 2), str(path))
        assert path.read_text() == "3 2 0\n"
        loaded = load_dataset(str(path))
        assert len(loaded) == 0
        assert loaded.s.shape == loaded.s_next.shape == (0, 3)
        assert loaded.a.shape == (0, 2)
        assert loaded.r.shape == loaded.done.shape == (0,)

    def test_loaded_fields_keep_their_types(self, tmp_path):
        rng = np.random.default_rng(7)
        data = generate_dataset(random_scm(3, 2, 2, rng=rng), 2, 3, 1.5, rng)
        path = tmp_path / "data.txt"
        save_dataset(data, str(path))
        loaded = load_dataset(str(path))
        for col, shape in (("s", (6, 3)), ("a", (6, 2)), ("r", (6,)),
                           ("s_next", (6, 3)), ("done", (6,))):
            arr = getattr(loaded, col)
            assert arr.dtype == np.float64 and arr.shape == shape
            assert arr.flags.c_contiguous
        assert loaded.done.tolist() == [0.0, 0.0, 1.0] * 2

    @pytest.mark.parametrize("edit, line, message", [
        (lambda rows: rows[:4], 5, "file ends after 3 of 10"),
        (lambda rows: rows[:4] + [rows[4][:20]] + rows[5:], 5,
         "expected 10 values, got 1"),
        (lambda rows: rows[:2] + ["nan " + rows[2].split(" ", 1)[1]]
         + rows[3:], 3, "non-finite"),
        (lambda rows: rows[:2] + ["x " + rows[2].split(" ", 1)[1]]
         + rows[3:], 3, "not a number: 'x'"),
        (lambda rows: rows + [rows[0]], 12, "more rows than"),
        (lambda rows: ["3 2"] + rows[1:], 1, "header"),
        (lambda rows: rows[:3] + [rows[3].rsplit(" ", 1)[0] + " 0.5"]
         + rows[4:], 4, "done flag must be 0 or 1, got 0.5"),
        (lambda rows: rows[:5] + [rows[5].rsplit(" ", 1)[0] + " -3.0"]
         + rows[6:], 6, "done flag must be 0 or 1, got -3.0"),
    ])
    def test_malformed_file_names_file_and_line(self, tmp_path, edit, line,
                                                 message):
        rng = np.random.default_rng(6)
        data = generate_dataset(random_scm(3, 2, 2, rng=rng), 2, 5, 1.5, rng)
        path = tmp_path / "data.txt"
        save_dataset(data, str(path))
        rows = edit(path.read_text().splitlines())
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=message) as exc:
            load_dataset(str(path))
        assert str(exc.value).startswith(f"{path}:{line}:")


def test_scm_step_matches_manual_draw():
    rng1 = np.random.default_rng(11)
    rng2 = np.random.default_rng(11)
    scm = random_scm(3, 2, 2, rng=np.random.default_rng(0))
    s = np.ones(3)
    a = np.full(2, 0.5)
    s_next, r = scm_step(scm, s, a, rng1)
    noise = scm._chol_s @ rng2.standard_normal(3)
    expect_next = s @ scm.f_s + a @ scm.f_a + noise
    expect_r = expect_next @ scm.b_s + a @ scm.b_a \
        + np.sqrt(scm.sigma_r) * rng2.standard_normal()
    assert np.array_equal(s_next, expect_next)
    assert r == expect_r


def rollout_step(scm, s, a, rng):
    """The rows recursion verify's rollouts ran before they called
    scm_step, kept as its reference."""
    noise = rng.standard_normal(s.shape) @ scm._chol_s.T
    s = s @ scm.f_s + a @ scm.f_a + noise
    r = s @ scm.b_s + a @ scm.b_a \
        + np.sqrt(scm.sigma_r) * rng.standard_normal(s.shape[0])
    return s, r


@pytest.mark.parametrize("correlated", [False, True])
def test_scm_step_rows_match_the_rollout_recursion(correlated):
    scm = random_scm(4, 3, 2, rng=np.random.default_rng(1))
    if correlated:
        scm = GroundTruthScm(scm.f_s, scm.f_a, scm.b_s, scm.b_a,
                             np.eye(4) + 0.3, scm.sigma_r)
    rng1, rng2 = np.random.default_rng(12), np.random.default_rng(12)
    s = np.random.default_rng(3).standard_normal((5, 4))
    a = np.random.default_rng(4).uniform(-1, 1, (5, 3))
    for _ in range(3):
        (s1, r1), (s2, r2) = scm_step(scm, s, a, rng1), \
            rollout_step(scm, s, a, rng2)
        assert np.array_equal(s1, s2) and np.array_equal(r1, r2)
        assert r1.shape == (5,)
        s = s1
    assert rng1.bit_generator.state == rng2.bit_generator.state
