"""Transport of a Gaussian pulse on a moving eigenbasis.

The pulse u(x, t) = exp(-250 (x - c t - 0.25)^2) translates rigidly, which
makes it the cleanest illustration of the method: a basis attached to the
solution can follow it with a handful of modes, where a fixed basis would
need to resolve every intermediate position.

Run:  python demos/advection_pulse.py
"""

import numpy as np

from laxrom import (
    AdvectionModel,
    SolverConfig,
    assemble,
    build_uniform_mesh_1d,
    eps_l2,
    initial_projection,
    reconstruct_nodal,
    run,
    solve_schrodinger_eig,
)

C = 0.5
CHI = 150.0
N_MODES = 16

fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 500))
x = fem.coords
u0 = np.exp(-250.0 * (x - 0.25) ** 2)

# The weight chi sets how many trapped modes the operator -u'' - chi u
# offers; larger chi localizes more of them around the pulse.
basis = solve_schrodinger_eig(fem, u0, CHI, N_MODES)
beta0, _ = initial_projection(basis, u0)

cfg = SolverConfig(chi=CHI, dt=1.0 / 256, t_max=1.0)
traj = run(basis, beta0, AdvectionModel(C), cfg)

# Reconstruct on a few time levels.  Level i sits at cfg.times()[i] = i dt;
# the trajectory holds no times.  The basis moves too: its modes at level i
# are B_0 Q_i, where the run steps the n x n rotation Q_i along the
# half-step generators, and it keeps the level's coefficients in the frame
# of the initial modes, Q_i beta_i.
pulse = lambda xs: np.exp(-250.0 * (xs - 0.25) ** 2)
times = cfg.times()
print("\n  t      eps_L2")
for i in range(0, traj.n_steps + 1, 64):
    u_rom = reconstruct_nodal(basis, traj.frame[i])
    u_ref = pulse(x - C * times[i])
    print(f"  {times[i]:4.2f}   {eps_l2(fem, u_ref, u_rom):.2e}")

# For pure transport the generator is known in closed form: with M = -c D
# the reduced coefficients should not move at all.  This is the sharpest
# internal consistency check the problem offers.
traj_exact = run(basis, beta0, AdvectionModel(C, exact_m=True), cfg)
drift = np.abs(traj_exact.coeffs - beta0).max()
print(f"\ncoefficient drift with the exact transport generator: {drift:.1e}")
