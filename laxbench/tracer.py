"""In-process tracing of laxrom, used only by the traced benchmark run.

Each public function is wrapped at the name its caller looks it up by
(``laxrom.harness.solve_schrodinger_eig``, ``laxrom.dynamics.bracket3``,
the models' ``gamma`` methods, ...), so a call is recorded once.  A span is
``[name, start, end, parent]``; spans stay in memory and are written out
when the run ends.  A layer's self time is its spans' time minus the time
of their child spans.
"""

from __future__ import annotations

import contextlib
import csv
import importlib
import time
from collections import Counter, defaultdict

import numpy as np


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = [-1]
        self._undo = []
        self.counts = Counter()
        self.t_drift = {}  # N_M -> (relative ||T||_F drift over the run, steps)
        self.last_basis = {}  # N_M -> last transported basis

    # -- recording ---------------------------------------------------------

    @contextlib.contextmanager
    def span(self, name):
        """Record one span around a block."""
        rec = self._open(name)
        try:
            yield
        finally:
            self._close(rec)

    def _open(self, name):
        rec = [name, time.perf_counter(), 0.0, self._stack[-1]]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def _close(self, rec):
        rec[2] = time.perf_counter()
        self._stack.pop()

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a recording wrapper.

        ``after(args, result)`` runs once the span is closed; it only counts.
        """
        inner = getattr(owner, attr)
        open_, close = self._open, self._close

        def traced(*args, **kwargs):
            rec = open_(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                close(rec)
            if after is not None:
                after(args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, inner))

    def unwrap(self):
        for owner, attr, inner in reversed(self._undo):
            setattr(owner, attr, inner)
        self._undo.clear()

    # -- what is wrapped ---------------------------------------------------

    def install(self):
        """Wrap every laxrom layer boundary (laxrom must be importable)."""
        mod = {name: importlib.import_module(f"laxrom.{name}")
               for name in ("harness", "dynamics", "eigenbasis", "reference",
                            "reconstruct", "scsa", "models")}
        harness, dynamics = mod["harness"], mod["dynamics"]
        count = self.counts

        def eig(site):
            def after(args, basis):
                count["eigenbasis.solves"] += 1
                count["eigenbasis.modes_requested"] += basis.n_modes
                if site == "scsa" and basis.n_modes == args[0].n_active:
                    count["scsa.full_spectrum_solves"] += 1
            return after

        def bracket(args, _):
            count["tensors.bracket3_calls"] += 1
            count["tensors.bracket3_flop"] += 6 * args[1].shape[0] ** 4

        def dyn_run(args, traj):
            count["dynamics.steps"] += traj.n_steps
            t0, t1 = np.linalg.norm(traj.first.T), np.linalg.norm(traj.last.T)
            self.t_drift[args[0].n_modes] = (float(abs(t1 - t0) / t0), traj.n_steps)

        def gamma(args, _):
            count["models.gamma_calls"] += 1

        def propagate(args, basis):
            count["reconstruct.steps"] += 1
            self.last_basis[basis.n_modes] = basis

        def reference(args, _):
            count["reference.calls"] += 1

        for attr in ("build_uniform_mesh_1d", "build_structured_square_mesh", "assemble"):
            self.wrap(harness, attr, "mesh.assemble")
        for site in ("eigenbasis", "reference"):
            self.wrap(mod[site], "assemble_weighted_mass", "mesh.weighted_mass")
        self.wrap(harness, "solve_schrodinger_eig", "eigenbasis.solve", eig("harness"))
        self.wrap(mod["scsa"], "solve_schrodinger_eig", "eigenbasis.solve", eig("scsa"))
        for attr in ("assemble_T", "assemble_D", "assemble_D3"):
            self.wrap(dynamics, attr, "tensors.assemble")
        self.wrap(dynamics, "bracket3", "tensors.bracket3", bracket)
        self.wrap(dynamics, "commutator", "tensors.commutator")
        self.wrap(dynamics, "build_M", "dynamics.build_M")
        self.wrap(harness, "run", "dynamics.run", dyn_run)
        for cls in ("AdvectionModel", "KdvEigenModel", "KdvSolitonModel", "FkppModel"):
            self.wrap(getattr(mod["models"], cls), "gamma", "models.gamma", gamma)
        self.wrap(harness, "propagate_basis", "reconstruct.propagate", propagate)
        self.wrap(mod["reconstruct"], "orthonormalize_g", "reconstruct.orthonormalize")
        self.wrap(harness, "reconstruct_nodal", "reconstruct.nodal")
        for attr in ("kdv_one_soliton", "kdv_n_soliton", "fkpp_reference"):
            self.wrap(harness, attr, "reference", reference)
        self.wrap(harness, "chi_sweep", "scsa.chi_sweep")

    # -- results -----------------------------------------------------------

    def totals(self):
        """({name: total time}, {name: self time}) over all spans."""
        total, children = defaultdict(float), defaultdict(float)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                children[parent] += end - start
        own = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - children[i]
        return total, own

    def orthonormality(self):
        """{N_M: max |B^T G B - I|} of the last transported basis per N_M."""
        out = {}
        for nm, basis in self.last_basis.items():
            gram = basis.B.T @ (basis.fem.mass @ basis.B)
            out[nm] = float(np.abs(gram - np.eye(nm)).max())
        return out

    def layer_metrics(self, wall):
        """Per-layer metrics of one traced round that took ``wall`` seconds."""
        total, own = self.totals()
        c = self.counts
        steps = c["dynamics.steps"]
        transports = c["reconstruct.steps"]
        per = lambda x, n: x / n if n else 0.0  # noqa: E731
        return {
            "mesh.assemble_s": (own["mesh.assemble"], "s"),
            "mesh.weighted_mass_s": (own["mesh.weighted_mass"], "s"),
            "eigenbasis.solve_s": (own["eigenbasis.solve"], "s"),
            "eigenbasis.solves": (c["eigenbasis.solves"], "count"),
            "eigenbasis.modes_requested": (c["eigenbasis.modes_requested"], "count"),
            "tensors.assemble_s": (own["tensors.assemble"], "s"),
            "tensors.bracket3_s": (own["tensors.bracket3"], "s"),
            "tensors.bracket3_calls": (c["tensors.bracket3_calls"], "count"),
            "tensors.bracket3_gflop_s": (
                per(c["tensors.bracket3_flop"], total["tensors.bracket3"]) / 1e9, "GFLOP/s"),
            "tensors.commutator_s": (own["tensors.commutator"], "s"),
            "dynamics.run_s": (total["dynamics.run"], "s"),
            "dynamics.step_ms": (1e3 * per(total["dynamics.run"], steps), "ms"),
            "dynamics.build_M_s": (own["dynamics.build_M"], "s"),
            "dynamics.self_s": (own["dynamics.run"], "s"),
            "dynamics.steps": (steps, "count"),
            "dynamics.rhs_evals_per_step": (per(c["models.gamma_calls"], steps), "count"),
            "models.gamma_s": (own["models.gamma"], "s"),
            "reconstruct.propagate_s": (own["reconstruct.propagate"], "s"),
            "reconstruct.orthonormalize_s": (own["reconstruct.orthonormalize"], "s"),
            "reconstruct.step_ms": (1e3 * per(total["reconstruct.propagate"], transports), "ms"),
            "reconstruct.nodal_s": (own["reconstruct.nodal"], "s"),
            "reference.s": (own["reference"], "s"),
            "reference.calls": (c["reference.calls"], "count"),
            "scsa.chi_sweep_s": (own["scsa.chi_sweep"], "s"),
            "scsa.full_spectrum_solves": (c["scsa.full_spectrum_solves"], "count"),
            "harness.self_s": (own["harness"], "s"),
            "cli.import_s": (own["cli.import"], "s"),
            "trace.wall_s": (wall, "s"),
        }

    def accounted(self):
        """Sum of all self times, which equals the time of the root spans."""
        return sum(self.totals()[1].values())

    def write(self, path):
        with open(path, "w", newline="") as f:
            out = csv.writer(f)
            out.writerow(["name", "start", "end", "parent"])
            out.writerows(self.spans)
