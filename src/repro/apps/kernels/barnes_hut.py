"""Barnes-Hut oct-tree N-body force solver.

The N-body code of the study (Olson & Dorband's SIMD tree code) uses an
oct-tree with 8K particles per processor.  This is a working 3-D
Barnes-Hut implementation: an adaptive oct-tree with per-node mass and
centre-of-mass, and the standard opening-angle (theta) multipole
acceptance criterion.  ``direct_forces`` gives the O(N^2) reference the
accuracy tests compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

import numpy as np

#: gravitational softening to avoid singularities in close encounters
DEFAULT_SOFTENING = 1e-3


def direct_forces(pos: np.ndarray, mass: np.ndarray,
                  softening: float = DEFAULT_SOFTENING) -> np.ndarray:
    """O(N^2) pairwise gravitational accelerations (G = 1)."""
    pos = np.asarray(pos, dtype=np.float64)
    mass = np.asarray(mass, dtype=np.float64)
    if pos.ndim != 2 or pos.shape[1] != 3:
        raise ValueError("pos must be (N, 3)")
    if mass.shape != (pos.shape[0],):
        raise ValueError("mass must be (N,)")
    delta = pos[None, :, :] - pos[:, None, :]          # (N, N, 3)
    dist2 = np.sum(delta ** 2, axis=-1) + softening ** 2
    np.fill_diagonal(dist2, np.inf)
    inv_d3 = dist2 ** -1.5
    return np.einsum("ijk,ij,j->ik", delta, inv_d3, mass)


@dataclass
class _Node:
    center: np.ndarray
    half: float
    mass: float = 0.0
    com: np.ndarray = field(default_factory=lambda: np.zeros(3))
    particle: Optional[int] = None       # leaf payload
    children: Optional[List[Optional["_Node"]]] = None

    @property
    def is_leaf(self) -> bool:
        return self.children is None


class BarnesHutTree:
    """Adaptive oct-tree over a particle set."""

    def __init__(self, pos: np.ndarray, mass: np.ndarray,
                 theta: float = 0.5, softening: float = DEFAULT_SOFTENING):
        pos = np.asarray(pos, dtype=np.float64)
        mass = np.asarray(mass, dtype=np.float64)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError("pos must be (N, 3)")
        if mass.shape != (pos.shape[0],):
            raise ValueError("mass must match particle count")
        if not (0 < theta < 2):
            raise ValueError("theta must be in (0, 2)")
        if len(pos) == 0:
            raise ValueError("need at least one particle")
        self.pos = pos
        self.mass = mass
        self.theta = theta
        self.softening = softening
        self.nodes_built = 0
        lo = pos.min(axis=0)
        hi = pos.max(axis=0)
        center = (lo + hi) / 2.0
        half = float(max((hi - lo).max() / 2.0, 1e-9)) * 1.001
        self.root = _Node(center=center, half=half)
        self.nodes_built += 1
        for i in range(len(pos)):
            self._insert(self.root, i)
        self._summarize(self.root)

    # -- construction -------------------------------------------------------
    def _octant(self, node: _Node, i: int) -> int:
        p = self.pos[i]
        return ((p[0] > node.center[0])
                | ((p[1] > node.center[1]) << 1)
                | ((p[2] > node.center[2]) << 2))

    def _child_for(self, node: _Node, octant: int) -> _Node:
        if node.children is None:
            node.children = [None] * 8
        child = node.children[octant]
        if child is None:
            offset = np.array([
                1 if octant & 1 else -1,
                1 if octant & 2 else -1,
                1 if octant & 4 else -1,
            ], dtype=np.float64) * (node.half / 2.0)
            child = _Node(center=node.center + offset, half=node.half / 2.0)
            node.children[octant] = child
            self.nodes_built += 1
        return child

    def _insert(self, node: _Node, i: int, depth: int = 0) -> None:
        if depth > 64:
            raise RuntimeError("tree depth exceeded (coincident particles?)")
        if node.is_leaf and node.particle is None and node.mass == 0.0:
            node.particle = i
            node.mass = -1.0  # occupied marker until summarize
            return
        if node.is_leaf:
            # split: push existing occupant down
            existing = node.particle
            node.particle = None
            node.mass = 0.0
            self._insert(self._child_for(node, self._octant(node, existing)),
                         existing, depth + 1)
        self._insert(self._child_for(node, self._octant(node, i)),
                     i, depth + 1)

    def _summarize(self, node: _Node) -> None:
        if node.is_leaf:
            i = node.particle
            node.mass = float(self.mass[i])
            node.com = self.pos[i].copy()
            return
        node.mass = 0.0
        node.com = np.zeros(3)
        for child in node.children:
            if child is None:
                continue
            self._summarize(child)
            node.mass += child.mass
            node.com += child.mass * child.com
        if node.mass > 0:
            node.com /= node.mass

    # -- force evaluation -----------------------------------------------------
    def acceleration_on(self, i: int) -> np.ndarray:
        """Barnes-Hut acceleration on particle ``i``."""
        acc = np.zeros(3)
        self._accumulate(self.root, i, acc)
        return acc

    def _accumulate(self, node: _Node, i: int, acc: np.ndarray) -> None:
        if node.mass == 0.0:
            return
        if node.is_leaf:
            if node.particle == i:
                return
            self._add_term(node, i, acc)
            return
        delta = node.com - self.pos[i]
        dist = float(np.sqrt(np.sum(delta ** 2))) + 1e-300
        if (2.0 * node.half) / dist < self.theta:
            self._add_term(node, i, acc)
        else:
            for child in node.children:
                if child is not None:
                    self._accumulate(child, i, acc)

    def _add_term(self, node: _Node, i: int, acc: np.ndarray) -> None:
        delta = node.com - self.pos[i]
        dist2 = float(np.sum(delta ** 2)) + self.softening ** 2
        acc += node.mass * delta / dist2 ** 1.5


def tree_forces(pos: np.ndarray, mass: np.ndarray, theta: float = 0.5,
                softening: float = DEFAULT_SOFTENING) -> np.ndarray:
    """Barnes-Hut accelerations for all particles (builds one tree)."""
    tree = BarnesHutTree(pos, mass, theta=theta, softening=softening)
    return np.array([tree.acceleration_on(i) for i in range(len(pos))])


def interactions_estimate(n: int, theta: float = 0.5) -> float:
    """Rough count of particle-node interactions per force evaluation.

    Barnes-Hut costs O(N log N / theta^2); used by the workload model to
    translate the paper's "303 million total particle interactions" into
    compute seconds.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * np.log2(max(n, 2)) / (theta * theta)
