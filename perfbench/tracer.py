"""Layer spans recorded from outside the package, with no source edit.

Tracer.install rebinds each traced function at run time.  Several of them
(`cg_solve`, `splu`, `u_operator`, `solve_state`, the snapshot writers)
are imported by name into more than one module, so every module-level
binding that refers to the original object is replaced, not only the one
in the defining module.  `Grid.elastic_matrix` is wrapped on the class.

Spans nest through a stack: a span's self time is its duration minus the
durations of the spans it directly caused.  Spans are aggregated per name
in memory and read out once, when the instance ends.
"""
import os
import sys
from collections import defaultdict
from time import perf_counter

from workloads import CG_LABELS, PER_LAYER


class Tracer:
    def __init__(self):
        self.total = defaultdict(float)
        self.child = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._stack = []
        # most recent optimizer candidate trajectory, and whether it was accepted
        self._candidate = None
        self._accepted = False

    # -- spans --------------------------------------------------------------

    def span(self, name, fn, after=None):
        """Wrap fn in a span; after(result, args, kwargs, parent) records counts."""

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            parent = self._stack[-1] if self._stack else None
            self._stack.append(label)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                self.total[label] += dt
                self.calls[label] += 1
                if parent is not None:
                    self.child[parent] += dt
            if after is not None:
                after(result, args, kwargs, parent)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def self_time(self, name):
        return self.total[name] - self.child[name]

    # -- counters at the layer boundaries -------------------------------------

    def _cg_done(self, result, args, kwargs, parent):
        label = kwargs.get("label", "cg")
        self.counts[f"cg.{label}.iters"] += result[1]
        self.counts["cg.one_iter"] += result[1] == 1

    def _newton_done(self, result, args, kwargs, parent):
        self.counts["newton_iters"] += result[1]

    def _write_done(self, result, args, kwargs, parent):
        self.counts["write_bytes"] += os.path.getsize(args[0])

    def _solve_state_done(self, result, args, kwargs, parent):
        if parent != "control.optimize":
            return
        self.counts["optimize.forward_solves"] += 1
        # the first solve inside optimize is the projected start, not a candidate
        is_start = self._candidate is None
        self._candidate, self._accepted = result, is_start

    def _adjoint_start(self, traj):
        # an accepted candidate becomes the trajectory the next adjoint sweep reads
        if traj is self._candidate and not self._accepted:
            self.counts["optimize.accepted"] += 1
            self._accepted = True

    def _optimize_done(self, result, args, kwargs, parent):
        self._adjoint_start(result.trajectory)
        self._candidate, self._accepted = None, False

    # -- installation ---------------------------------------------------------

    def install(self):
        """Rebind the traced functions in every loaded tumorctrl module."""
        import scipy.sparse.linalg
        import tumorctrl.cli  # noqa: F401  (loads every module that holds a binding)
        from tumorctrl import adjoint, config, control, grid, linalg, linearized, model, snapshots, state

        def adjoint_span(fn):
            traced = self.span("adjoint.solve_adjoint", fn)

            def wrapper(traj, *args, **kwargs):
                self._adjoint_start(traj)
                return traced(traj, *args, **kwargs)

            return wrapper

        targets = [
            (linalg.cg_solve, self.span(lambda a, k: f"linalg.cg.{k.get('label', 'cg')}",
                                        linalg.cg_solve, self._cg_done)),
            (scipy.sparse.linalg.splu, self.span("linalg.splu", scipy.sparse.linalg.splu)),
            (state.solve_state, self.span("state.solve_state", state.solve_state, self._solve_state_done)),
            (state.step_phi, self.span("state.step_phi", state.step_phi)),
            (state.step_sigma, self.span("state.step_sigma", state.step_sigma)),
            (state.step_u, self.span("state.step_u", state.step_u)),
            (state.step_z, self.span("state.step_z", state.step_z, self._newton_done)),
            (state.u_operator, self.span("state.u_operator", state.u_operator)),
            (model.separation_bounds, self.span("model.separation_bounds", model.separation_bounds)),
            (model.check_hypotheses, self.span("model.check_hypotheses", model.check_hypotheses)),
            (linearized.solve_linearized,
             self.span("linearized.solve_linearized", linearized.solve_linearized)),
            (adjoint.solve_adjoint, adjoint_span(adjoint.solve_adjoint)),
            (adjoint.eval_cost, self.span("adjoint.eval_cost", adjoint.eval_cost)),
            (adjoint.duality_residual, self.span("adjoint.duality_residual", adjoint.duality_residual)),
            (control.optimize, self.span("control.optimize", control.optimize, self._optimize_done)),
            (control.project_admissible,
             self.span("control.project_admissible", control.project_admissible)),
            (control.reduced_gradient, self.span("control.reduced_gradient", control.reduced_gradient)),
            (control.vi_residual, self.span("control.vi_residual", control.vi_residual)),
            (snapshots.write_snapshot_csv,
             self.span("snapshots.write", snapshots.write_snapshot_csv, self._write_done)),
            (snapshots.write_snapshot_bin,
             self.span("snapshots.write", snapshots.write_snapshot_bin, self._write_done)),
            (config.load_config, self.span("config.load_config", config.load_config)),
        ]
        replace = {id(orig): wrapped for orig, wrapped in targets}
        for mod_name, mod in list(sys.modules.items()):
            if mod_name != "tumorctrl" and not mod_name.startswith("tumorctrl."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, attr, replace[id(value)])
        grid.Grid.elastic_matrix = self.span("grid.elastic_matrix", grid.Grid.elastic_matrix)

    # -- read-out -------------------------------------------------------------

    def metrics(self):
        """Per-layer figures of one traced instance, keyed as in PER_LAYER."""
        selfs = {name: self.self_time(name) for name in self.calls}
        m = {}
        for key, _, _ in PER_LAYER:
            span, _, kind = key.rpartition(".")
            if kind == "calls":
                m[key] = self.calls[span]
            elif kind == "s":
                m[key] = self.total[span]
            elif kind == "self_s":
                m[key] = self.self_time(span)
        cg_calls = sum(n for name, n in self.calls.items() if name.startswith("linalg.cg."))
        for label in CG_LABELS:
            m[f"linalg.cg.{label}.iters"] = self.counts[f"cg.{label}.iters"]
        m["linalg.cg.one_iter_share"] = self.counts["cg.one_iter"] / cg_calls if cg_calls else 0.0
        m["state.newton_iters"] = self.counts["newton_iters"]
        opt_calls = self.calls["control.optimize"]
        solves = self.counts["optimize.forward_solves"]
        m["control.forward_solves_per_optimize"] = solves / opt_calls if opt_calls else 0
        # every forward solve inside optimize but the first is a line-search candidate
        cands = solves - opt_calls
        m["control.armijo_accept_ratio"] = self.counts["optimize.accepted"] / cands if cands else 0.0
        m["snapshots.write.bytes"] = self.counts["write_bytes"]
        return m, selfs
