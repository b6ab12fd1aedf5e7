"""Representing a static signal through its own Schrodinger spectrum.

Treat a signal y(x) as the potential of -d_xx - chi y and expand y in the
resulting eigenfunctions.  Two variants: the plain projection on the first
n modes, and the bound-state form (4/chi) sum kappa_m phi_m^2, which is
exact when chi*y is a reflectionless potential and degrades gracefully
when it is not.

Run:  python demos/signal_expansions.py
"""

import os
import tempfile

import numpy as np

from laxrom import (
    assemble,
    build_uniform_mesh_1d,
    chi_sweep,
    eigen_expansion,
    read_signal_csv,
    shift_nonnegative,
    soliton_expansion,
)

# --- a reflectionless signal is one squared mode --------------------------

fem_r = assemble(build_uniform_mesh_1d(-12.0, 12.0, 601))
xr = fem_r.coords
refl = 2.0 / np.cosh(xr) ** 2
approx, err, n_neg = soliton_expansion(refl, 1.0, fem_r)
print(f"2 sech^2(x) at chi=1: {n_neg} bound state, "
      f"one-term reconstruction error {err:.1e}")

# --- double Gaussian: projection vs bound states --------------------------

fem = assemble(build_uniform_mesh_1d(0.0, 1.0, 500), "neumann")
x = fem.coords
signal = np.exp(-250.0 * (x - 0.25) ** 2) - np.exp(-250.0 * (x - 0.75) ** 2)
shifted, offset = shift_nonnegative(signal)
print(f"\ndouble Gaussian: baseline {offset:.3f} removed so the signal is "
      "admissible as a potential well")

print("  modes   eigen error   (chi = 250)")
for n in (5, 10, 20, 40):
    _, e = eigen_expansion(shifted, 250.0, n, fem)
    print(f"  {n:4d}    {e:.2e}")

_, sol_err, nb = soliton_expansion(shifted, 250.0, fem)
print(f"bound-state form: {nb} modes available, error {sol_err:.2f} "
      "(poor: the shifted signal is far from reflectionless)")

# --- chi is a tuning knob; sweep it ---------------------------------------

res = chi_sweep(shifted, (50.0, 150.0, 250.0, 400.0), 20, fem, methods=("eigen",))["eigen"]
print("\nbest chi per mode budget (eigen method):")
for n, chi, err in res.best[4::5]:
    print(f"  {int(n):3d} modes: chi={chi:g}  error {err:.2e}")

# --- signals can come from CSV files --------------------------------------

with tempfile.TemporaryDirectory() as tmp:
    path = os.path.join(tmp, "signal.csv")
    np.savetxt(path, np.column_stack([x, shifted]), delimiter=",",
               header="x,value", comments="")
    x2, y2 = read_signal_csv(path)
    print(f"\nround-trip through CSV: {y2.size} samples, "
          f"max deviation {np.abs(y2 - shifted).max():.1e}")
