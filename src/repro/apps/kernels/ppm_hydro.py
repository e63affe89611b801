"""Piecewise Parabolic Method (PPM) advection kernel.

A working 1-D PPM scheme (Colella & Woodward 1984) for linear advection —
the reconstruction/limiting machinery at the heart of the astrophysics
code of the study (Fryxell & Taam's non-axisymmetric accretion solver).
The reconstruction builds a monotonicity-limited parabola in each cell and
advances the solution by integrating the parabola over the domain swept by
the (constant) advection velocity.

Vectorised numpy throughout; periodic boundary conditions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass
class PPMState:
    """Solution state on a uniform periodic 1-D grid."""

    u: np.ndarray      # cell averages
    dx: float
    velocity: float

    def __post_init__(self):
        self.u = np.asarray(self.u, dtype=np.float64)
        if self.u.ndim != 1 or len(self.u) < 5:
            raise ValueError("need a 1-D grid of at least 5 cells")
        if self.dx <= 0:
            raise ValueError("dx must be positive")


def _roll(a: np.ndarray, shift: int) -> np.ndarray:
    return np.roll(a, shift)


def ppm_reconstruct(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monotonicity-limited parabolic reconstruction.

    Returns ``(u_left, u_right)``: the limited interface values of the
    parabola in each cell.  Follows CW84 eqs. 1.6-1.10: fourth-order
    interface interpolation with van-Leer-limited slopes, then the
    monotonicity adjustments that remove over/undershoots.
    """
    u = np.asarray(u, dtype=np.float64)
    up1, um1 = _roll(u, -1), _roll(u, 1)

    # van Leer limited slope (CW84 eq. 1.8)
    du = 0.5 * (up1 - um1)
    s = np.sign(du)
    du_lim = s * np.minimum(np.abs(du),
                            2.0 * np.minimum(np.abs(up1 - u),
                                             np.abs(u - um1)))
    monotone = (up1 - u) * (u - um1) > 0
    du_lim = np.where(monotone, du_lim, 0.0)

    # fourth-order interface value (CW84 eq. 1.6)
    du_lim_p1 = _roll(du_lim, -1)
    u_face = u + 0.5 * (up1 - u) - (du_lim_p1 - du_lim) / 6.0

    u_right = u_face            # value at i+1/2 seen from cell i
    u_left = _roll(u_face, 1)   # value at i-1/2 seen from cell i

    # monotonicity adjustment (CW84 eq. 1.10)
    local_extremum = (u_right - u) * (u - u_left) <= 0
    u_left = np.where(local_extremum, u, u_left)
    u_right = np.where(local_extremum, u, u_right)

    d = u_right - u_left
    overshoot_r = d * (u - 0.5 * (u_left + u_right)) > d * d / 6.0
    u_left = np.where(overshoot_r, 3.0 * u - 2.0 * u_right, u_left)
    overshoot_l = -d * d / 6.0 > d * (u - 0.5 * (u_left + u_right))
    u_right = np.where(overshoot_l, 3.0 * u - 2.0 * u_left, u_right)
    return u_left, u_right


def advect_step(state: PPMState, dt: float) -> PPMState:
    """Advance one time step of linear advection at CFL <= 1.

    Flux at each interface integrates the upwind cell's parabola over the
    distance ``|v| dt`` swept through the interface (CW84 eq. 1.12).
    """
    v = state.velocity
    cfl = abs(v) * dt / state.dx
    if cfl > 1.0 + 1e-12:
        raise ValueError(f"CFL {cfl:.3f} > 1")
    u = state.u
    u_left, u_right = ppm_reconstruct(u)
    du = u_right - u_left
    u6 = 6.0 * (u - 0.5 * (u_left + u_right))

    x = cfl
    if v >= 0:
        # average of the parabola over [1-x, 1] of each cell (upwind = left
        # cell of the interface)
        face_avg = u_right - 0.5 * x * (du - (1.0 - 2.0 * x / 3.0) * u6)
        flux = v * face_avg                  # flux through i+1/2
        flux_m1 = _roll(flux, 1)             # flux through i-1/2
        unew = u - (dt / state.dx) * (flux - flux_m1)
    else:
        # upwind = right cell: average over [0, x] of that cell's parabola
        face_avg = u_left + 0.5 * x * (du + (1.0 - 2.0 * x / 3.0) * u6)
        flux = v * _roll(face_avg, -1)       # flux through i+1/2
        flux_m1 = _roll(flux, 1)
        unew = u - (dt / state.dx) * (flux - flux_m1)
    return PPMState(unew, state.dx, state.velocity)


def run_advection(u0: np.ndarray, velocity: float, dx: float,
                  cfl: float, nsteps: int) -> np.ndarray:
    """Convenience driver: ``nsteps`` of PPM advection; returns final u."""
    if not (0 < cfl <= 1):
        raise ValueError("CFL must be in (0, 1]")
    state = PPMState(np.array(u0, dtype=np.float64), dx, velocity)
    dt = cfl * dx / abs(velocity)
    for _ in range(nsteps):
        state = advect_step(state, dt)
    return state.u


def flops_per_cell_step() -> int:
    """Approximate floating-point work of one PPM cell update.

    Used by the workload model to convert grid size x steps into compute
    seconds on the reference CPU.
    """
    return 40
