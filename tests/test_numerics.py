import copy
import pickle

import numpy as np
import pytest

from cgdp.numerics import AdamState, Mlp, mat_expm

from conftest import central_fd, rel_err


def series_expm(m, terms=30):
    """Independent truncated-series oracle for the matrix exponential."""
    m = np.asarray(m, dtype=float)
    result = np.eye(m.shape[0])
    term = np.eye(m.shape[0])
    for k in range(1, terms + 1):
        term = term @ m / k
        result = result + term
    return result


class TestMatExpm:
    def test_zero_matrix_gives_identity(self):
        assert np.array_equal(mat_expm(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        out = mat_expm(np.diag([1.0, 2.0]))
        assert np.allclose(out, np.diag([np.e, np.e ** 2]), rtol=1e-12)

    def test_symmetric_two_by_two(self):
        out = mat_expm(np.array([[0.0, 1.0], [1.0, 0.0]]))
        expected = np.array([[np.cosh(1.0), np.sinh(1.0)],
                             [np.sinh(1.0), np.cosh(1.0)]])
        assert np.allclose(out, expected, rtol=1e-12)
        assert np.allclose(out, [[1.5431, 1.1752], [1.1752, 1.5431]],
                           atol=1e-4)

    def test_matches_series_oracle_up_to_norm_ten(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            dim = int(rng.integers(1, 6))
            m = rng.standard_normal((dim, dim))
            norm = np.linalg.norm(m, 2)
            if norm > 10:
                m *= 10.0 / norm
            assert rel_err(mat_expm(m), series_expm(m, 60)) < 1e-10

    def test_inverse_identity(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            m = rng.standard_normal((4, 4))
            m *= 5.0 / max(np.linalg.norm(m, 2), 5.0)
            prod = mat_expm(m) @ mat_expm(-m)
            assert np.linalg.norm(prod - np.eye(4)) < 1e-8

    def test_rejects_non_square_and_non_finite(self):
        import pytest
        with pytest.raises(ValueError):
            mat_expm(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            mat_expm(np.array([[np.inf, 0.0], [0.0, 0.0]]))


class TestMlp:
    def test_zero_network_zero_output(self):
        net = Mlp([3, 4, 2])
        assert np.array_equal(net.forward(np.ones((1, 3))), np.zeros((1, 2)))

    def test_identity_linear_layer(self):
        net = Mlp([2, 2])
        net.weights[0][...] = np.eye(2)
        x = np.array([[1.0, 2.0], [-3.0, 0.5]])
        assert np.array_equal(net.forward(x), x)

    def test_hand_computed_tanh_composition(self):
        net = Mlp([2, 2, 1])
        net.weights[0][...] = [[1.0, -1.0], [0.5, 0.5]]
        net.biases[0][...] = [0.1, -0.2]
        net.weights[1][...] = [[2.0, -3.0]]
        net.biases[1][...] = [0.25]
        x = np.array([0.3, -0.7])
        h = np.tanh(net.weights[0] @ x + net.biases[0])
        expected = net.weights[1] @ h + net.biases[1]
        assert np.allclose(net.forward(x[None])[0], expected, rtol=1e-14)

    def test_linear_layer_weight_gradient(self):
        net = Mlp([3, 2])
        x = np.array([[1.0, 2.0, 3.0]])
        _, cache = net.forward_cache(x)
        grad, _ = net.backward(cache, np.array([[1.0, 0.0]]))
        w_grad, b_grad = net.views(grad)
        assert np.array_equal(w_grad, [[1.0, 2.0, 3.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(b_grad, [1.0, 0.0])

    def test_zero_cotangent_zero_gradients(self):
        net = Mlp([3, 5, 2], rng=np.random.default_rng(0))
        _, cache = net.forward_cache(np.ones((2, 3)))
        grad, gx = net.backward(cache, np.zeros((2, 2)))
        assert np.all(grad == 0) and grad.shape == net.flat.shape
        assert np.all(gx == 0) and gx.shape == (2, 3)

    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        for probe in range(100):
            widths = [int(rng.integers(2, 9)) for _ in range(3)]
            net = Mlp(widths, rng=rng)
            x = rng.standard_normal((1, widths[0]))
            cot = rng.standard_normal((1, widths[-1]))
            _, cache = net.forward_cache(x)
            grad, gx = net.backward(cache, cot)
            assert rel_err(gx[0], central_fd(
                lambda v: float(net.forward(v[None])[0] @ cot[0]),
                x[0])) < 1e-4
            w0 = net.weights[0]
            i, j = int(rng.integers(w0.shape[0])), int(rng.integers(w0.shape[1]))
            h = 1e-5
            orig = w0[i, j]
            w0[i, j] = orig + h
            up = float(net.forward(x)[0] @ cot[0])
            w0[i, j] = orig - h
            down = float(net.forward(x)[0] @ cot[0])
            w0[i, j] = orig
            fd = (up - down) / (2 * h)
            assert abs(net.views(grad)[0][i, j] - fd) < \
                1e-4 * max(abs(fd), 1.0)

    def test_batched_forward_matches_per_row(self):
        rng = np.random.default_rng(3)
        net = Mlp([3, 4, 2], rng=rng)
        x = rng.standard_normal((5, 3))
        batched = net.forward(x)
        for i in range(5):
            assert np.allclose(batched[i], net.forward(x[i:i + 1])[0],
                               rtol=1e-14)

    @pytest.mark.parametrize("x", [np.ones(3), np.ones((2, 4)),
                                   np.ones((1, 2, 3))])
    def test_rejects_anything_but_rows_of_the_input_width(self, x):
        net = Mlp([3, 4, 2])
        with pytest.raises(ValueError, match=r"shape \(B, 3\)"):
            net.forward_cache(x)

    def test_parameters_and_gradients_view_one_flat_buffer(self):
        net = Mlp([3, 5, 2], rng=np.random.default_rng(0))
        assert all(p.base is net.flat for p in net.views(net.flat))
        assert np.array_equal(
            np.concatenate([p.ravel() for p in net.views(net.flat)]), net.flat)
        _, cache = net.forward_cache(np.ones((4, 3)))
        grad, _ = net.backward(cache, np.ones((4, 2)))
        again, _ = net.backward(cache, np.ones((4, 2)))
        assert grad.shape == net.flat.shape and grad.base is None
        assert again is not grad and np.array_equal(again, grad)
        clone = net.copy()
        assert np.array_equal(clone.flat, net.flat)
        clone.weights[0][0, 0] += 1.0
        assert clone.flat[0] == net.flat[0] + 1.0

    @pytest.mark.parametrize("round_trip", [
        copy.deepcopy, lambda net: pickle.loads(pickle.dumps(net))])
    def test_copied_and_unpickled_nets_keep_one_flat_buffer(self,
                                                            round_trip):
        orig = Mlp([3, 5, 2], rng=np.random.default_rng(0))
        net = round_trip(orig)
        assert np.array_equal(net.flat, orig.flat)
        assert all(p.base is net.flat for p in net.views(net.flat))
        _, cache = net.forward_cache(np.ones((4, 3)))
        grad, _ = net.backward(cache, np.ones((4, 2)))
        AdamState(net.flat, lr=1e-2).step(net.flat, grad)
        assert np.array_equal(
            np.concatenate([p.ravel() for p in net.views(net.flat)]), net.flat)
        assert np.array_equal(net.copy().flat, net.flat)


def reference_adam(params, grads_seq, lr=3e-4, beta1=0.9, beta2=0.999,
                   eps=1e-8):
    """Adam one array at a time, each step's expressions as written."""
    m = [np.zeros_like(p) for p in params]
    v = [np.zeros_like(p) for p in params]
    for t, grads in enumerate(grads_seq, start=1):
        for i, (p, g) in enumerate(zip(params, grads)):
            m[i] = beta1 * m[i] + (1 - beta1) * g
            v[i] = beta2 * v[i] + (1 - beta2) * g * g
            m_hat = m[i] / (1 - beta1 ** t)
            v_hat = v[i] / (1 - beta2 ** t)
            p -= lr * m_hat / (np.sqrt(v_hat) + eps)


class TestAdam:
    def test_flat_buffer_steps_match_per_array_adam_bitwise(self):
        # two nets with an optimizer each, as the critic pair has
        rng = np.random.default_rng(5)
        nets = [Mlp([7, 16, 16, 3], rng=np.random.default_rng(6)),
                Mlp([7, 8, 1], rng=np.random.default_rng(7))]
        refs = [[p.copy() for p in net.views(net.flat)] for net in nets]
        opts = [AdamState(net.flat, lr=1e-2) for net in nets]
        grads_seqs = [[], []]
        for _ in range(50):
            x = rng.standard_normal((9, 7))
            for net, opt, grads_seq in zip(nets, opts, grads_seqs):
                _, cache = net.forward_cache(x)
                g, _ = net.backward(cache, rng.standard_normal(
                    (9, net.widths[-1])))
                grads_seq.append([v.copy() for v in net.views(g)])
                opt.step(net.flat, g)
        for net, ref, grads_seq in zip(nets, refs, grads_seqs):
            reference_adam(ref, grads_seq, lr=1e-2)
            assert all(np.array_equal(a, b)
                       for a, b in zip(net.views(net.flat), ref))

    def test_soft_update_matches_per_array_polyak_bitwise(self):
        from cgdp.rl import CriticPair
        critics = CriticPair(3, 2, hidden=(8, 8),
                             rng=np.random.default_rng(0), rho_target=0.3)
        rng = np.random.default_rng(1)
        refs = []
        for online, target in ((critics.q1, critics.q1_target),
                               (critics.q2, critics.q2_target)):
            online.flat[...] = rng.standard_normal(online.flat.size)
            refs.append([p.copy() for p in target.views(target.flat)])
        for _ in range(50):
            critics.soft_update()
            for ref, online in zip(refs, (critics.q1, critics.q2)):
                for p_t, p_o in zip(ref, online.views(online.flat)):
                    p_t *= 1.0 - 0.3
                    p_t += 0.3 * p_o
        for ref, target in zip(refs, (critics.q1_target,
                                      critics.q2_target)):
            assert all(np.array_equal(a, b)
                       for a, b in zip(ref, target.views(target.flat)))

    def test_zero_learning_rate_is_noop(self):
        net = Mlp([2, 3, 1], rng=np.random.default_rng(0))
        before = net.flat.copy()
        opt = AdamState(net.flat, lr=0.0)
        for _ in range(5):
            opt.step(net.flat, np.ones_like(net.flat))
        assert np.array_equal(before, net.flat) and opt.step_count == 5

    def test_descends_a_quadratic(self):
        p = np.array([5.0, -3.0])
        opt = AdamState(p, lr=0.1)
        for _ in range(500):
            opt.step(p, 2.0 * p)
        assert np.all(np.abs(p) < 1e-2)

    def test_takes_one_flat_vector(self):
        net = Mlp([2, 3, 1])
        with pytest.raises(ValueError, match="one flat parameter vector"):
            AdamState(net.weights[0])

