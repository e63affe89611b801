"""Unit tests for the Barnes-Hut N-body kernel."""

import numpy as np
import pytest

from repro.apps.kernels import BarnesHutTree, direct_forces, tree_forces
from repro.apps.kernels.barnes_hut import interactions_estimate


def plummer_like(n, seed=0):
    rng = np.random.default_rng(seed)
    pos = rng.normal(size=(n, 3))
    mass = np.full(n, 1.0 / n)
    return pos, mass


def test_two_body_force_is_newtonian():
    pos = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0]])
    mass = np.array([1.0, 1.0])
    acc = direct_forces(pos, mass, softening=0.0)
    assert acc[0] == pytest.approx([1.0, 0.0, 0.0])
    assert acc[1] == pytest.approx([-1.0, 0.0, 0.0])


def test_direct_forces_newtons_third_law():
    pos, mass = plummer_like(20)
    acc = direct_forces(pos, mass)
    momentum_rate = (mass[:, None] * acc).sum(axis=0)
    assert np.allclose(momentum_rate, 0.0, atol=1e-12)


def test_tree_matches_direct_within_theta_error():
    pos, mass = plummer_like(200, seed=1)
    direct = direct_forces(pos, mass)
    tree = tree_forces(pos, mass, theta=0.3)
    rel_err = np.linalg.norm(tree - direct, axis=1) / \
        (np.linalg.norm(direct, axis=1) + 1e-12)
    assert np.median(rel_err) < 0.02
    assert rel_err.mean() < 0.05


def test_smaller_theta_is_more_accurate():
    pos, mass = plummer_like(150, seed=2)
    direct = direct_forces(pos, mass)

    def err(theta):
        tree = tree_forces(pos, mass, theta=theta)
        return np.linalg.norm(tree - direct) / np.linalg.norm(direct)

    assert err(0.2) < err(0.9)


def test_tree_mass_accounting():
    pos, mass = plummer_like(100, seed=3)
    tree = BarnesHutTree(pos, mass)
    assert tree.root.mass == pytest.approx(mass.sum())
    com = (pos * mass[:, None]).sum(axis=0) / mass.sum()
    assert np.allclose(tree.root.com, com)


def test_tree_node_count_is_linearish():
    pos, mass = plummer_like(500, seed=4)
    tree = BarnesHutTree(pos, mass)
    assert 500 < tree.nodes_built < 500 * 10


def test_single_particle_tree():
    tree = BarnesHutTree(np.zeros((1, 3)), np.ones(1))
    assert np.allclose(tree.acceleration_on(0), 0.0)


def test_input_validation():
    with pytest.raises(ValueError):
        direct_forces(np.zeros((3, 2)), np.ones(3))
    with pytest.raises(ValueError):
        direct_forces(np.zeros((3, 3)), np.ones(4))
    with pytest.raises(ValueError):
        BarnesHutTree(np.zeros((0, 3)), np.zeros(0))
    with pytest.raises(ValueError):
        BarnesHutTree(np.zeros((2, 3)) + [[0, 0, 0], [1, 1, 1]],
                      np.ones(2), theta=0.0)
    with pytest.raises(ValueError):
        interactions_estimate(0)


def test_interactions_estimate_grows_superlinearly():
    assert interactions_estimate(8192) > 10 * interactions_estimate(512)


def test_coincident_particles_rejected():
    pos = np.zeros((2, 3))
    with pytest.raises(RuntimeError):
        BarnesHutTree(pos, np.ones(2))
