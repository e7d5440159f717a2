"""Fuzzing of the three file loaders: whatever the text of the file,
``load_dataset``, ``load_noise_net`` and ``load_dynamics`` either raise
ValueError or return a valid object.  The inputs are arbitrary text and
small valid files with one line dropped or one token replaced by ``nan``,
``inf`` or a blank.  Random checkpoints, extreme floats among their
values, round-trip bit-exactly."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from cgdp.diffusion import NoiseNet, load_noise_net, save_noise_net
from cgdp.dynamics import CausalDynamics, load_dynamics, save_dynamics
from cgdp.scm import (CausalMasks, Transitions, generate_dataset,
                      load_dataset, random_scm, save_dataset)


def small_dataset():
    rng = np.random.default_rng(0)
    return generate_dataset(random_scm(2, 1, 1, rng=rng), 2, 2, 1.5, rng)


def small_net():
    return NoiseNet(2, 1, 3, hidden=(2,), rng=np.random.default_rng(0))


def small_dynamics():
    masks = CausalMasks(np.ones((2, 2)), np.ones((1, 2)), np.ones(2),
                        np.ones(1))
    return CausalDynamics(masks=masks, sigma_s=np.eye(2), sigma_r=0.5,
                          a_s=0.3 * np.eye(2), a_a=np.ones((1, 2)),
                          b_s=np.ones(2), b_a=np.ones(1), r_star=1.5)


def finite(*arrays):
    return all(np.all(np.isfinite(a)) for a in arrays)


def valid_dataset(t):
    cols = (t.s, t.a, t.r, t.s_next, t.done)
    return isinstance(t, Transitions) and finite(*cols) and \
        all(len(c) == len(t) for c in cols) and \
        set(t.done.tolist()) <= {0.0, 1.0}


def valid_net(net):
    return isinstance(net, NoiseNet) and finite(net.mlp.flat)


def valid_dynamics(dyn):
    return isinstance(dyn, CausalDynamics) and 0 < dyn.sigma_r < np.inf \
        and finite(dyn.r_star, dyn.a_s, dyn.a_a, dyn.b_s, dyn.b_a,
                   dyn.sigma_s)


# kind -> (a small valid object, its writer, the loader, validity)
LOADERS = {
    "dataset": (small_dataset, save_dataset, load_dataset, valid_dataset),
    "noise_net": (small_net, save_noise_net, load_noise_net, valid_net),
    "dynamics": (small_dynamics, save_dynamics, load_dynamics,
                 valid_dynamics),
}


@pytest.fixture(scope="module")
def valid_lines(tmp_path_factory):
    """The lines of each kind's small valid file."""
    out = {}
    for kind, (make, save, _, _) in LOADERS.items():
        path = tmp_path_factory.mktemp("valid") / kind
        save(make(), str(path))
        out[kind] = path.read_text(encoding="utf-8").splitlines()
    return out


def mutations(lines):
    """``lines`` with one line dropped, or one token replaced."""
    def drop(i):
        return lines[:i] + lines[i + 1:]

    def replace(i, j, value):
        tokens = lines[i].split() or [""]
        tokens[j % len(tokens)] = value
        return lines[:i] + [" ".join(tokens)] + lines[i + 1:]

    index = st.integers(0, len(lines) - 1)
    return st.one_of(
        index.map(drop),
        st.builds(replace, index, st.integers(0, 1000),
                  st.sampled_from(["nan", "inf", "-inf", ""])),
    ).map(lambda ls: "\n".join(ls) + "\n")


@pytest.mark.parametrize("kind", sorted(LOADERS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_loader_raises_value_error_or_returns_a_valid_object(
        kind, valid_lines, tmp_path_factory, data):
    text = data.draw(st.one_of(
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=200),
        mutations(valid_lines[kind])))
    path = tmp_path_factory.getbasetemp() / f"fuzz_{kind}.txt"
    path.write_text(text, encoding="utf-8")
    load, valid = LOADERS[kind][2:]
    try:
        obj = load(str(path))
    except ValueError as exc:
        assert str(exc).startswith(f"{path}")
    else:
        assert valid(obj)


EDGES = [-0.0, 5e-324, -5e-324, 1.7976931348623157e308,
         -1.7976931348623157e308]


def floats(min_value=None, max_value=None):
    """Finite floats in the range, the edge values in it among them."""
    edges = [v for v in EDGES if (min_value is None or v >= min_value)
             and (max_value is None or v <= max_value)]
    return st.one_of(st.sampled_from(edges), st.floats(
        min_value, max_value, allow_nan=False, allow_infinity=False))


def arrays(shape, **bounds):
    return hnp.arrays(float, shape, elements=floats(**bounds))


@st.composite
def noise_nets(draw):
    net = NoiseNet(draw(st.integers(1, 4)), draw(st.integers(1, 3)),
                   draw(st.integers(1, 20)),
                   tuple(draw(st.lists(st.integers(1, 5), max_size=2))))
    net.mlp.flat[...] = draw(arrays(net.mlp.flat.size))
    return net


@st.composite
def causal_dynamics(draw):
    n, d = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    masks = CausalMasks(*(draw(arrays(shape, min_value=0.0, max_value=1.0))
                          for shape in ((n, n), (d, n), (n,), (d,))))
    # one scale: eigvalsh finds a diagonal of 5e-324 and 1e308 singular
    sigma_s = draw(floats(min_value=5e-324)) * np.eye(n)
    return CausalDynamics(
        masks=masks, sigma_s=sigma_s,
        sigma_r=draw(floats(min_value=5e-324)), a_s=draw(arrays((n, n))),
        a_a=draw(arrays((d, n))), b_s=draw(arrays(n)), b_a=draw(arrays(d)),
        r_star=draw(floats()))


def net_bits(net):
    return (net.n_state, net.d_action, net.k_steps, net.mlp.widths,
            net.mlp.flat.tobytes())


def dynamics_bits(dyn):
    return [np.asarray(getattr(obj, name), dtype=float).tobytes()
            for obj, names in ((dyn.masks, ("c_ss", "c_as", "u_sr", "u_ar")),
                               (dyn, ("sigma_s", "sigma_r", "a_s", "a_a",
                                      "b_s", "b_a", "r_star")))
            for name in names]


# kind -> (strategy, writer, loader, the object's exact bits)
ROUND_TRIPS = {
    "noise_net": (noise_nets(), save_noise_net, load_noise_net, net_bits),
    "dynamics": (causal_dynamics(), save_dynamics, load_dynamics,
                 dynamics_bits),
}


@pytest.mark.parametrize("kind", sorted(ROUND_TRIPS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_checkpoint_round_trip_is_bit_exact(kind, tmp_path_factory, data):
    """save -> load gives the object's exact bits back, and save -> load ->
    save writes the same bytes."""
    strategy, save, load, bits = ROUND_TRIPS[kind]
    obj = data.draw(strategy)
    first = tmp_path_factory.getbasetemp() / f"round_trip_{kind}.txt"
    again = first.with_suffix(".again")
    save(obj, str(first))
    loaded = load(str(first))
    save(loaded, str(again))
    assert bits(loaded) == bits(obj)
    assert again.read_bytes() == first.read_bytes()
