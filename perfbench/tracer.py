"""Span tracer that wraps degenflow's public functions at their call sites.

Every degenflow module binds the functions it calls as module globals
(``from .plap_operator import apply_plaplacian``), so a call goes through
the caller's namespace.  ``install`` replaces each such binding, in every
module of the package, with a wrapper that records a span.  The sparse LU
calls the solvers make through ``scipy.sparse.linalg`` are wrapped the same
way, by swapping the ``spla`` name in the two modules that use it for a
proxy.  Nothing in the package itself changes.

A span is ``[name, start, end, parent, raised]`` with ``parent`` the index
of the enclosing span (-1 at the root) and ``raised`` true when the call
raised.  Self time is the span's duration minus the durations of its
direct children; calls are sequential, so children never overlap.
"""

from __future__ import annotations

import importlib
import inspect
import time

LAYERS = (
    "cli",
    "timestepper",
    "plap_operator",
    "eigensolver",
    "discretization",
    "weight_models",
    "diagnostics",
)


class Tracer:
    def __init__(self):
        self.spans = []
        self.values = []  # (span name, value) taken from call results
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """Return ``fn`` recording a span per call, and ``on_result(result)``
        into ``values`` when given."""
        spans, stack, values = self.spans, self._stack, self.values
        clock = time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([name, clock(), 0.0, stack[-1] if stack else -1, False])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                spans[index][4] = True
                raise
            finally:
                stack.pop()
                spans[index][2] = clock()
            if on_result is not None:
                values.append((name, on_result(result)))
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self):
        child = [0.0] * len(self.spans)
        for _name, start, end, parent, _raised in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [span[2] - span[1] - c for span, c in zip(self.spans, child)]


_ON_RESULT = {
    "plap_operator.diffusion_jacobian": lambda matrix: matrix.nnz,
    "eigensolver.smallest_eigenpair": lambda pair: pair.iterations,
}


class _SuperLUProxy:
    """SuperLU factor whose ``solve`` is traced."""

    def __init__(self, lu, solve):
        self._lu = lu
        self.solve = solve

    def __getattr__(self, attr):
        return getattr(self._lu, attr)


class _LinalgProxy:
    """Stand-in for ``scipy.sparse.linalg`` with chosen functions replaced."""

    def __init__(self, module, **replaced):
        self._module = module
        self.__dict__.update(replaced)

    def __getattr__(self, attr):
        return getattr(self._module, attr)


def install(tracer):
    """Wrap the public functions of every layer at all of their call sites."""
    modules = {layer: importlib.import_module(f"degenflow.{layer}") for layer in LAYERS}
    modules_all = list(modules.values()) + [importlib.import_module("degenflow")]

    wrappers = {}
    for layer, module in modules.items():
        for attr, obj in vars(module).items():
            if (
                inspect.isfunction(obj)
                and obj.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                name = f"{layer}.{attr}"
                wrappers[id(obj)] = tracer.wrap(name, obj, _ON_RESULT.get(name))

    for module in modules_all:
        for attr, obj in list(vars(module).items()):
            if id(obj) in wrappers:
                setattr(module, attr, wrappers[id(obj)])

    ts = modules["timestepper"]
    spla = ts.spla

    def splu(*args, **kwargs):
        lu = spla.splu(*args, **kwargs)
        return _SuperLUProxy(lu, tracer.wrap("timestepper.lu_solve", lu.solve))

    ts.spla = _LinalgProxy(
        spla, splu=tracer.wrap("timestepper.splu", splu, lambda lu: lu.L.nnz + lu.U.nnz)
    )
    eig = modules["eigensolver"]
    eig.spla = _LinalgProxy(
        eig.spla, factorized=tracer.wrap("eigensolver.factorized", eig.spla.factorized)
    )


def _ratio(num, den):
    # a ratio whose base is zero (no steps on an eigen run) reads 0
    return num / den if den else 0.0


def layer_metrics(tracer, outcomes):
    """Per-layer metrics from one traced run.

    ``outcomes`` holds the parsed ``outcome.json`` of every evolution the
    run wrote.  Times are seconds; ``_s`` of a named function is its self
    time, ``run_s``, ``solve_s``, ``factor_s``, ``lu_solve_s``,
    ``blowup_est_s`` and ``field_csv_s`` are whole spans.
    """
    selfs = tracer.self_times()
    calls, self_s, total_s, raised = {}, {}, {}, {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_calls = dict.fromkeys(LAYERS, 0)
    for (name, start, end, _parent, err), own in zip(tracer.spans, selfs):
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + own
        total_s[name] = total_s.get(name, 0.0) + (end - start)
        raised[name] = raised.get(name, 0) + err
        layer = name.split(".", 1)[0]
        layer_self[layer] += own
        layer_calls[layer] += 1

    def values(name):
        return [v for n, v in tracer.values if n == name]

    def mean(xs):
        return sum(xs) / len(xs) if xs else 0.0

    under_eigensolver = 0
    for name, _start, _end, parent, _raised in tracer.spans:
        if name != "plap_operator.energy":
            continue
        while parent >= 0 and tracer.spans[parent][0] != "eigensolver.smallest_eigenpair":
            parent = tracer.spans[parent][3]
        under_eigensolver += parent >= 0

    steps = calls.get("timestepper.step_implicit", 0)
    failures = raised.get("timestepper.step_implicit", 0)
    accepted = sum(o["steps"] for o in outcomes)
    newton = sum(o["newton_iters_total"] for o in outcomes)
    eig_iters = sum(values("eigensolver.smallest_eigenpair"))
    c, s, t = calls.get, self_s.get, total_s.get

    return {
        "cli.self_s": layer_self["cli"],
        "timestepper.run_calls": c("timestepper.run_simulation", 0),
        "timestepper.run_s": t("timestepper.run_simulation", 0.0),
        "timestepper.step_attempts": steps,
        "timestepper.step_solver_failures": failures,
        "timestepper.step_growth_rejects": steps - failures - accepted,
        "timestepper.steps_accepted": accepted,
        "timestepper.accept_ratio": _ratio(accepted, steps),
        "timestepper.newton_iters": newton,
        "timestepper.newton_per_step": _ratio(newton, accepted),
        "timestepper.step_self_s": s("timestepper.step_implicit", 0.0),
        "timestepper.factor_calls": c("timestepper.splu", 0),
        "timestepper.factor_s": t("timestepper.splu", 0.0),
        "timestepper.lu_solve_s": t("timestepper.lu_solve", 0.0),
        "timestepper.lu_nnz": mean(values("timestepper.splu")),
        "timestepper.blowup_est_s": t("timestepper.estimate_blowup_time", 0.0),
        "plap_operator.apply_calls": c("plap_operator.apply_plaplacian", 0),
        "plap_operator.apply_s": s("plap_operator.apply_plaplacian", 0.0),
        "plap_operator.energy_calls": c("plap_operator.energy", 0),
        "plap_operator.energy_s": s("plap_operator.energy", 0.0),
        "plap_operator.jacobian_calls": c("plap_operator.diffusion_jacobian", 0),
        "plap_operator.jacobian_s": s("plap_operator.diffusion_jacobian", 0.0),
        "plap_operator.hessian_calls": c("plap_operator.energy_hessian_matrix", 0),
        "plap_operator.hessian_s": s("plap_operator.energy_hessian_matrix", 0.0),
        "plap_operator.reaction_s": s("plap_operator.reaction_eval", 0.0)
        + s("plap_operator.reaction_derivative", 0.0),
        "plap_operator.jacobian_nnz": mean(values("plap_operator.diffusion_jacobian")),
        "eigensolver.solve_s": t("eigensolver.smallest_eigenpair", 0.0),
        "eigensolver.self_s": layer_self["eigensolver"]
        - t("eigensolver.factorized", 0.0),
        "eigensolver.iterations": eig_iters,
        "eigensolver.factor_s": t("eigensolver.factorized", 0.0),
        "eigensolver.quotient_evals": under_eigensolver,
        "eigensolver.quotient_per_iter": _ratio(under_eigensolver, eig_iters),
        "discretization.cell_volumes_calls": c("discretization.cell_volumes", 0),
        "discretization.weight_on_grid_calls": c("discretization.weight_on_grid", 0),
        "discretization.integrate_calls": c("discretization.integrate", 0),
        "discretization.s": layer_self["discretization"],
        "discretization.field_csv_s": t("discretization.write_field_csv", 0.0),
        "weight_models.eval_radial_calls": c("weight_models.eval_radial", 0),
        "weight_models.s": layer_self["weight_models"],
        "diagnostics.calls": layer_calls["diagnostics"],
        "diagnostics.s": layer_self["diagnostics"],
    }
