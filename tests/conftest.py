import numpy as np
import pytest

from cgdp.discovery import NotearsConfig, discover_masks
from cgdp.dynamics import fit_dynamics
from cgdp.scm import generate_dataset, random_scm


def central_fd(f, x, h=1e-5):
    """Central finite-difference gradient of scalar f at vector x."""
    x = np.asarray(x, dtype=float)
    g = np.zeros_like(x)
    for i in range(x.size):
        xp = x.copy()
        xm = x.copy()
        xp[i] += h
        xm[i] -= h
        g[i] = (f(xp) - f(xm)) / (2.0 * h)
    return g


def rel_err(approx, exact):
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = max(np.linalg.norm(exact), 1e-12)
    return np.linalg.norm(approx - exact) / denom


@pytest.fixture(scope="session")
def small_instance():
    """A fitted linear dynamics model plus its generating SCM."""
    rng = np.random.default_rng(0)
    scm = random_scm(3, 2, 2, rng=rng)
    data = generate_dataset(scm, 200, 5, 1.5, rng)
    masks = discover_masks(data, NotearsConfig()).masks
    dyn = fit_dynamics(data, masks)
    return scm, dyn, data
