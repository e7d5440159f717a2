import tracemalloc

import numpy as np
import pytest

from cgdp.diffusion import (NoiseNet, ddim_sample, ddpm_sample,
                            forward_corrupt, load_noise_net, make_schedule,
                            save_noise_net, train_noise_net)
from cgdp.numerics import AdamState
from cgdp.scm import Transitions


def toy_dataset(rng, count=64, n=2, d=2, mu=None):
    mu = np.zeros(d) if mu is None else mu
    rows = []
    for _ in range(count):
        s = rng.standard_normal(n)
        a = mu + 0.1 * rng.standard_normal(d)
        rows.append((s, a))
    s, a = (np.array(col) for col in zip(*rows))
    return Transitions(s, a, np.zeros(count), s.copy(), np.zeros(count))


class TestSchedule:
    def test_single_step(self):
        sched = make_schedule(1, 0.5, 0.5)
        assert sched.abar_at(1) == 0.5
        assert sched.abar_at(0) == 1.0

    def test_two_step_products(self):
        sched = make_schedule(2, 0.1, 0.2)
        assert np.allclose(sched.abar, [0.9, 0.72], rtol=1e-14)

    def test_long_schedule_terminal_noise(self):
        sched = make_schedule(1000, 1e-4, 2e-2)
        assert sched.abar_at(1000) < 1e-4

    def test_monotone_decreasing(self):
        sched = make_schedule(100)
        assert np.all(np.diff(sched.abar) < 0)
        assert np.allclose(sched.alphas + sched.betas, 1.0, rtol=1e-15)

    def test_rejects_bad_bounds(self):
        with pytest.raises(ValueError):
            make_schedule(10, 0.2, 0.1)
        with pytest.raises(ValueError):
            make_schedule(0)


class TestForwardCorrupt:
    def test_k_zero_identity(self):
        sched = make_schedule(10)
        a0 = np.array([1.0, -2.0])
        ak, eps = forward_corrupt(sched, a0, 0, np.random.default_rng(0))
        assert np.array_equal(ak, a0) and np.all(eps == 0)

    def test_variance_moment_check(self):
        sched = make_schedule(50, 1e-2, 0.5)
        rng = np.random.default_rng(1)
        k = 40
        draws = np.array([forward_corrupt(sched, np.zeros(1), k, rng)[0]
                          for _ in range(10 ** 5)])
        target = 1.0 - sched.abar_at(k)
        assert abs(draws.var() - target) / target < 0.03

    def test_out_of_range(self):
        sched = make_schedule(10)
        with pytest.raises(ValueError):
            forward_corrupt(sched, np.zeros(1), 11, np.random.default_rng(0))


class ZeroNet:
    """Noise predictor that always predicts zero noise."""

    d_action = 2

    def chain_inputs(self, s):
        return None

    def forward(self, a, s, k, x=None):
        return np.zeros_like(a)


class TestSamplers:
    def test_ddpm_single_step_closed_form(self):
        sched = make_schedule(1, 0.36, 0.36)
        rng = np.random.default_rng(2)
        a0 = ddpm_sample(ZeroNet(), sched, np.zeros((1, 2)), rng)
        a1 = np.random.default_rng(2).standard_normal((1, 2))
        assert np.allclose(a0, a1 / np.sqrt(1.0 - 0.36), rtol=1e-14)

    def test_zero_hook_bit_identity(self):
        sched = make_schedule(20)
        net = NoiseNet(2, 2, 20, hidden=(8,), rng=np.random.default_rng(0))

        def zero_hook(a, k):
            return np.zeros_like(a)

        s = np.random.default_rng(1).standard_normal((4, 2))
        for sampler in (ddpm_sample, ddim_sample):
            base = sampler(net, sched, s, np.random.default_rng(3))
            hooked = sampler(net, sched, s, np.random.default_rng(3),
                             hook=zero_hook)
            assert np.array_equal(base, hooked)

    def test_ddim_step_zero_noise_rescale(self):
        # with zero predicted noise the chain only rescales:
        # a^0 = a^K / sqrt(abar_K)
        sched = make_schedule(2, 0.5, 0.5)  # abar = (0.5, 0.25)
        a0 = ddim_sample(ZeroNet(), sched, np.zeros((1, 2)),
                         np.random.default_rng(0))
        ak = np.random.default_rng(0).standard_normal((1, 2))
        assert np.allclose(a0, 2.0 * ak, rtol=1e-14)

    def test_ddim_degenerate_step_reconstruction(self):
        # u_k, w_k reproduce the two-stage step through the clean estimate
        # a0_hat = (a^k - sqrt(1-abar_k) eps) / sqrt(abar_k)
        sched = make_schedule(3, 0.1, 0.3)
        ak = np.array([[0.4, 0.6]])
        eps = np.array([[0.3, -0.1]])
        for k in (1, 2, 3):
            abar_k, abar_prev = sched.abar_at(k), sched.abar_at(k - 1)
            a0_hat = (ak - np.sqrt(1 - abar_k) * eps) / np.sqrt(abar_k)
            two_stage = np.sqrt(abar_prev) * a0_hat + \
                np.sqrt(1 - abar_prev) * eps
            one_step = sched.ddim_u[k - 1] * ak + sched.ddim_w[k - 1] * eps
            assert np.allclose(one_step, two_stage, rtol=1e-12)

    def test_taped_chain_matches_act_path_bitwise(self):
        sched = make_schedule(10)
        net = NoiseNet(3, 2, 10, hidden=(8,), rng=np.random.default_rng(0))
        s = np.random.default_rng(1).standard_normal((4, 3))

        def hook(a, k):
            return 0.1 * k * np.tanh(a)

        tape = []
        taped = ddim_sample(net, sched, s, np.random.default_rng(2),
                            hook=hook, tape=tape)
        plain = ddim_sample(net, sched, s, np.random.default_rng(2),
                            hook=hook)
        assert np.array_equal(taped, plain)
        assert [k for k, _ in tape] == list(range(10, 0, -1))

    def test_ddim_matches_a_concatenated_input_chain_bitwise(self):
        from cgdp.verify import GaussianPriorNet
        sched = make_schedule(10)
        nets = [NoiseNet(3, 2, 10, hidden=(16, 16),
                         rng=np.random.default_rng(0)),
                GaussianPriorNet(np.array([0.3, -0.2]), 0.5 * np.eye(2),
                                 sched)]

        def hook(a, k):
            return 0.1 * k * np.tanh(a)

        def reference(net, s, rng, hook):
            # the chain with a freshly concatenated [a | s | k/K] input
            a = rng.standard_normal((s.shape[0], 2))
            for k in range(10, 0, -1):
                if isinstance(net, NoiseNet):
                    x = np.concatenate(
                        [a, s, np.full((s.shape[0], 1), k / 10)], axis=1)
                    eps = net.mlp.forward(x)
                else:
                    eps = net.forward(a, s, k)
                if hook is not None:
                    eps = eps + hook(a, k)
                a = sched.ddim_u[k - 1] * a + sched.ddim_w[k - 1] * eps
            return a

        for net in nets:
            for rows in (1, 64):
                s = np.random.default_rng(rows).standard_normal((rows, 3))
                for h in (None, hook):
                    got = ddim_sample(net, sched, s,
                                      np.random.default_rng(2), hook=h)
                    want = reference(net, s, np.random.default_rng(2), h)
                    assert np.array_equal(got, want)

    def test_ddpm_matches_known_gaussian(self):
        # analytic noise for actions ~ N(mu, 0.1^2 I) under the forward kernel
        mu = np.array([0.7, -0.4])
        sched = make_schedule(200)

        class AnalyticNet:
            d_action = 2

            def forward(self, a, s, k):
                abar = sched.abar_at(k)
                var = abar * 0.01 + (1 - abar)
                score = -(a - np.sqrt(abar) * mu) / var
                return -np.sqrt(1 - abar) * score

        rng = np.random.default_rng(4)
        out = ddpm_sample(AnalyticNet(), sched, np.zeros((10 ** 4, 1)), rng)
        assert np.all(np.abs(out.mean(axis=0) - mu) < 0.05)


def heldout_loss(net, dataset, schedule, rng, batch_size=256):
    """Monte Carlo estimate of the noise-prediction loss on a dataset."""
    states, actions = dataset.s, dataset.a
    idx = rng.integers(len(dataset), size=batch_size)
    k = int(rng.integers(1, schedule.k_steps + 1))
    ak, eps = forward_corrupt(schedule, actions[idx], k, rng)
    pred = net.forward(ak, states[idx], k)
    return float(((pred - eps) ** 2).sum(axis=1).mean())


class TestTraining:
    def test_memorizes_single_pair(self):
        rng = np.random.default_rng(6)
        data = Transitions(np.zeros((1, 2)), np.array([[0.5, -0.5]]),
                           np.zeros(1), np.zeros((1, 2)), np.zeros(1))
        sched = make_schedule(10)
        net = NoiseNet(2, 2, 10, hidden=(32, 32), rng=rng)
        opt = AdamState(net.mlp.flat, lr=1e-3)
        losses = train_noise_net(net, data, sched, opt, 2000, rng)
        early = np.mean(losses[:200])
        late = np.mean(losses[-200:])
        assert late < 0.2 * early
        assert late < 0.3

    def test_zero_steps_leaves_params(self):
        rng = np.random.default_rng(7)
        net = NoiseNet(2, 2, 10, hidden=(8,), rng=rng)
        before = net.mlp.flat.copy()
        opt = AdamState(net.mlp.flat)
        train_noise_net(net, toy_dataset(rng), make_schedule(10), opt, 0, rng)
        assert np.array_equal(before, net.mlp.flat)

    def test_heldout_loss_improves_most_seeds(self):
        sched = make_schedule(10)
        wins = 0
        for seed in range(10):
            rng = np.random.default_rng(seed)
            data = toy_dataset(rng, count=128, mu=np.array([0.6, -0.6]))
            held = toy_dataset(rng, count=128, mu=np.array([0.6, -0.6]))
            net = NoiseNet(2, 2, 10, hidden=(16, 16), rng=rng)
            before = np.mean([heldout_loss(net, held, sched,
                                           np.random.default_rng(100 + i))
                              for i in range(5)])
            opt = AdamState(net.mlp.flat, lr=1e-3)
            train_noise_net(net, data, sched, opt, 300, rng)
            after = np.mean([heldout_loss(net, held, sched,
                                          np.random.default_rng(100 + i))
                             for i in range(5)])
            wins += int(after < before)
        assert wins >= 9

    def test_empty_dataset_rejected(self):
        net = NoiseNet(2, 2, 10, hidden=(8,))
        with pytest.raises(ValueError):
            train_noise_net(net, Transitions.zeros(0, 2, 2),
                            make_schedule(10),
                            AdamState(net.mlp.flat), 10,
                            np.random.default_rng(0))


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        net = NoiseNet(3, 2, 15, hidden=(8, 8), rng=rng)
        p1 = tmp_path / "net.txt"
        p2 = tmp_path / "net2.txt"
        save_noise_net(net, str(p1))
        loaded = load_noise_net(str(p1))
        assert (loaded.n_state, loaded.d_action, loaded.k_steps) == (3, 2, 15)
        assert np.array_equal(net.mlp.flat, loaded.mlp.flat)
        save_noise_net(loaded, str(p2))
        assert p1.read_bytes() == p2.read_bytes()

    @pytest.mark.parametrize("cut, message", [
        (lambda lines: lines[:2] + [lines[2][:7]],
         ":3: array flat needs 74 finite"),
        (lambda lines: lines[:2], ":3: array flat needs 74 finite"),
        (lambda lines: lines[:1], ":2: expected array header 'flat 74'"),
        (lambda lines: lines + ["flat 1", "0.5"],
         ":4: text after the last array"),
        (lambda lines: lines[:2] + ["nan" + lines[2][3:]],
         ":3: array flat needs 74 finite"),
        (lambda lines: [lines[0].replace(" 8", " 1000000 1000000")]
         + lines[1:], ":2: expected array header 'flat 1000010000002'"),
        (lambda lines: [lines[0] + " 0"] + lines[1:],
         ":1: expected 'cgdp-noise-net-v2 n d K hidden...'"),
        (lambda lines: ["cgdp-noise-net-v1 3 2 15", "6 8 2"] + lines[2:],
         ":1: unrecognized checkpoint header 'cgdp-noise-net-v1'"),
        (lambda lines: [""] + lines, ":1: unrecognized checkpoint header ''"),
    ])
    def test_malformed_checkpoint_names_file_and_line(self, tmp_path, cut,
                                                      message):
        net = NoiseNet(3, 2, 15, hidden=(8,), rng=np.random.default_rng(8))
        path = tmp_path / "net.txt"
        save_noise_net(net, str(path))
        lines = cut(path.read_text().splitlines())
        path.write_text("\n".join(lines) + "\n")
        # the header's sizes allocate nothing before the values check out
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message) as exc:
                load_noise_net(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert f"{path}:" in str(exc.value)
        assert peak < 2 ** 20
