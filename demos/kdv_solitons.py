"""KdV solitons: the eigen expansion and the squared-bound-state form.

For u_t + 6 u u_x + u_xxx = 0 the operator L(u) = -d_xx - u is special:
its spectrum is conserved by the flow, and for a pure n-soliton datum it
has exactly n negative eigenvalues whose squared eigenfunctions rebuild
the solution as u = sum_j alpha_j phi_j^2 with alpha_j = 4 sqrt(-lambda_j)
constant in time.  This script shows both representations on the speed-4
soliton, then the spectrum of the three-soliton collision datum.

Run:  python demos/kdv_solitons.py        (about 5 s)
"""

import numpy as np

from laxrom import (
    KdvSolitonModel,
    SolverConfig,
    assemble,
    build_uniform_mesh_1d,
    eps_l2,
    kdv_n_soliton,
    kdv_one_soliton,
    reconstruct_nodal,
    run,
    solve_schrodinger_eig,
)

# --- one soliton, squared-mode form ---------------------------------------

fem = assemble(build_uniform_mesh_1d(-5.0, 25.0, 500))
x = fem.coords
u0 = kdv_one_soliton(4.0, 0.0, x, 0.0)

N_MODES = 36
basis = solve_schrodinger_eig(fem, u0, 1.0, N_MODES)
n_neg = int(np.count_nonzero(basis.lam < 0.0))
print(f"one-soliton datum: {n_neg} negative eigenvalue, "
      f"lambda_1 = {basis.lam[0]:.6f} (analytic -1)")

alpha0 = 4.0 * np.sqrt(-basis.lam[:n_neg])
print(f"scattering amplitude alpha_1 = {alpha0[0]:.6f} (analytic 4)")

cfg = SolverConfig(chi=1.0, dt=2e-3, t_max=5.0)
model = KdvSolitonModel(n_neg)  # amplitudes frozen at the scattering values
traj = run(basis, alpha0, model, cfg)

# level i sits at cfg.times()[i] = i dt, and its modes are B_0 Q_i, with
# Q_i an n x n rotation stepped along the half-step generators; squaring
# needs the nodal modes, so the run keeps the leading columns Q_i[:, :p]
# as the level's frame
times = cfg.times()
print("\n  t     eps_L2   (soliton travels from x=0 to x=20)")
for i in range(0, traj.n_steps + 1, 500):
    u_rom = reconstruct_nodal(basis, traj.coeffs[i], law="soliton", frame=traj.frame[i])
    u_ref = kdv_one_soliton(4.0, 0.0, x, times[i])
    print(f"  {times[i]:4.1f}  {eps_l2(fem, u_ref, u_rom):.2e}")

drift = np.abs(traj.coeffs - alpha0).max()
print(f"amplitude drift over the run: {drift:.1e}")

# --- three-soliton spectrum -----------------------------------------------

# Scattering data (c_m, k_m): three humps of speeds 4 k_m^2; by t = 0.5 the
# two fast ones have passed through the slow one.
c_m, k_m = (0.05, 0.15, 10.0), (1.0, 1.5, 1.75)
fem3 = assemble(build_uniform_mesh_1d(-15.0, 15.0, 1501))
u3 = kdv_n_soliton(c_m, k_m, fem3.coords, 0.0)

basis3 = solve_schrodinger_eig(fem3, u3, 1.0, 8)
neg = basis3.lam[basis3.lam < 0.0]
print(f"\nthree-soliton datum: {neg.size} negative eigenvalues {np.round(neg, 4)}")
print(f"analytic values -k_m^2: {[-k * k for k in k_m]}")
