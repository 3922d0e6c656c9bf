"""Spans and counts recorded around calls into poismech's public functions.

Nothing inside the package changes: :func:`instrument` wraps each listed
function, and :func:`switch` puts the wrapper in every ``poismech`` module
attribute that refers to the function, or takes it out again.  A wrapper
opens a span (name, start, end, parent span, job id) and may add to exact
counters.  Spans live in flat arrays in memory and are written out
once, when the run ends.
"""
from __future__ import annotations

import functools
import statistics
import sys
import time
from array import array
from pathlib import Path
from typing import Any, Callable

import numpy as np

# span name of every wrapped call; each reports .calls, .s (busy) and .self_s
LAYERS = (
    "bracket.jacobi_certificate",
    "bracket.eval_bracket",
    "bracket.matrix",
    "bracket.hamiltonian_vector_field",
    "bracket.pushforward_bivector",
    "flow.integrate_flow",
    "su2.free_flow",
    "su2.flow_diagnostics",
    "su2.momentum_isomorphism",
    "groupoid.project_trajectory",
    "generators.flow",
    "kappa.velocity_momentum_profile",
    "minkowski2d.scattering",
    "fitting.tail_velocity",
    "fitting.central_derivative",
    "cli.minkowski2d_certificate",
    "cli.kappa_certificate",
    "cli.su2_certificate",
    "cli.load_config",
    "cli.run_scenario",
    "cli.sweep_scenario",
    "cli.build_artifact.trajectory",
    "cli.build_artifact.projection",
    "cli.build_artifact.scattering",
    "cli.build_artifact.profile",
    "cli.write_artifact",
    "cli.write_manifest",
    "cli.scalar_summaries",
)

# exact counts added by the wrappers; with the .calls of every layer and
# flow.rhs_evals (taken from the spans) they must repeat from pass to pass
COUNTS = (
    "bracket.jacobi_residuals",
    "flow.steps",
    "su2.renormalizations",
    "groupoid.points_projected",
    "cli.bytes_written",
)


# units of the per-layer metrics other than <layer>.calls (count) and
# <layer>.s / <layer>.self_s (s)
UNITS = {
    "bracket.jacobi_residuals": "count",
    "bracket.us_per_residual": "us",
    "flow.steps": "count",
    "flow.rhs_evals": "count",
    "flow.rhs_per_step": "1",
    "su2.renormalizations": "count",
    "groupoid.points_projected": "count",
    "groupoid.us_per_point": "us",
    "cli.bytes_written": "B",
    "cli.import.scipy_s": "s",
    "cli.import.total_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.traced_wall_s": "s",
    "trace.overhead_s": "s",
}


def unit(name: str) -> str:
    return UNITS.get(name) or ("count" if name.endswith(".calls") else "s")


def is_exact(name: str) -> bool:
    """Counts that must repeat exactly on the same inputs."""
    return name.endswith(".calls") or name in COUNTS or name == "flow.rhs_evals"


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den else 0.0


def summarize(per_pass: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Counts from the first traced pass and median times over all of them,
    plus the derived ratios; also the names of counts that moved between
    passes."""
    first = per_pass[0]
    moved = [k for k in first if is_exact(k) and any(p[k] != first[k] for p in per_pass)]
    layer = {k: first[k] if is_exact(k) else statistics.median(p[k] for p in per_pass)
             for k in first}
    layer["bracket.us_per_residual"] = _ratio(
        layer["bracket.jacobi_certificate.s"], layer["bracket.jacobi_residuals"], 1e6)
    layer["flow.rhs_per_step"] = _ratio(layer["flow.rhs_evals"], layer["flow.steps"])
    layer["groupoid.us_per_point"] = _ratio(
        layer["groupoid.project_trajectory.s"], layer["groupoid.points_projected"], 1e6)
    return layer, moved


class Tracer:
    """In-memory span store; one open span per stack level, one thread."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._active: list[int] = []
        self._stack: list[int] = []
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.job = array("i")
        self.top = array("b")  # no enclosing span of the same name
        self.job_id = -1
        self._mark = 0
        self.counts: dict[str, int] = dict.fromkeys(COUNTS, 0)

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self._active.append(0)
        return nid

    def open(self, nid: int) -> int:
        i = len(self.start)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.job.append(self.job_id)
        self.top.append(self._active[nid] == 0)
        self._active[nid] += 1
        self.end.append(0.0)
        self._stack.append(i)
        self.start.append(time.perf_counter())
        return i

    def close(self, i: int) -> None:
        self.end[i] = time.perf_counter()
        self._stack.pop()
        self._active[self.name[i]] -= 1

    def add(self, key: str, n: int) -> None:
        self.counts[key] += int(n)

    def __len__(self) -> int:
        return len(self.start)

    def end_pass(self) -> dict[str, float]:
        """Per-layer metrics and counts of the spans since the last call."""
        out = self.layer_metrics(self._mark, len(self))
        out.update(self.counts)
        self.counts = dict.fromkeys(COUNTS, 0)
        self._mark = len(self)
        return out

    def layer_metrics(self, lo: int, hi: int) -> dict[str, float]:
        """Per-layer metrics of the spans with indices in [lo, hi)."""
        name = np.frombuffer(self.name, dtype=np.intc)[lo:hi]
        dur = (np.frombuffer(self.end)[lo:hi] - np.frombuffer(self.start)[lo:hi])
        top = np.frombuffer(self.top, dtype=np.int8)[lo:hi].astype(bool)
        parent = np.frombuffer(self.parent, dtype=np.intc)[lo:hi] - lo
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=hi - lo)
        self_time = dur - child
        out: dict[str, float] = {}
        for layer in LAYERS:
            nid = self._ids.get(layer, -1)
            m = name == nid
            out[f"{layer}.calls"] = int(m.sum())
            out[f"{layer}.s"] = float(dur[m & top].sum())
            out[f"{layer}.self_s"] = float(self_time[m].sum())
        hvf = name == self._ids.get("bracket.hamiltonian_vector_field", -1)
        in_flow = np.zeros_like(hvf)
        in_flow[has_parent] = name[parent[has_parent]] == self._ids.get("flow.integrate_flow", -1)
        out["flow.rhs_evals"] = int((hvf & in_flow).sum())
        return out

    def write(self, path: Path, job_names: list[str]) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            path,
            names=np.array(self.names),
            jobs=np.array(job_names),
            name=np.frombuffer(self.name, dtype=np.intc),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            parent=np.frombuffer(self.parent, dtype=np.intc),
            job=np.frombuffer(self.job, dtype=np.intc),
        )


def _wrap(tracer: Tracer, fn: Callable, span: str | Callable[[tuple], str],
          after: Callable[[Tracer, tuple, dict, Any], None] | None = None) -> Callable:
    fixed = tracer.name_id(span) if isinstance(span, str) else None

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        i = tracer.open(fixed if fixed is not None else tracer.name_id(span(args)))
        try:
            out = fn(*args, **kwargs)
        finally:
            tracer.close(i)
        if after is not None:
            after(tracer, args, kwargs, out)
        return out

    return traced


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


def _count_written(tracer: Tracer, args, kwargs, files) -> None:
    out_dir = Path(_arg(args, kwargs, 1, "out_dir"))
    tracer.add("cli.bytes_written", sum((out_dir / f).stat().st_size for f in files))


def _count_manifest(tracer: Tracer, args, kwargs, _out) -> None:
    out_dir = Path(_arg(args, kwargs, 0, "out_dir"))
    tracer.add("cli.bytes_written", (out_dir / "manifest.json").stat().st_size)


def instrument(tracer: Tracer) -> list[tuple[Any, str, Callable, Callable]]:
    """Build a wrapper for the public entry point of every poismech layer.

    Returns (owner, attribute, original, wrapper) for every module attribute
    and class attribute that refers to a wrapped function; :func:`switch`
    puts the wrappers in or takes them out.
    """
    from poismech import bracket, cli, fitting, flow, generators, groupoid, kappa, minkowski2d, su2

    functions = [
        (bracket, "jacobi_certificate", "bracket.jacobi_certificate",
         lambda t, a, k, cert: t.add("bracket.jacobi_residuals", cert.n_points * cert.n_triples)),
        (bracket, "eval_bracket", "bracket.eval_bracket", None),
        (bracket, "hamiltonian_vector_field", "bracket.hamiltonian_vector_field", None),
        (bracket, "pushforward_bivector", "bracket.pushforward_bivector", None),
        (flow, "integrate_flow", "flow.integrate_flow",
         lambda t, a, k, traj: t.add("flow.steps", len(traj.times) - 1)),
        (su2, "free_flow", "su2.free_flow",
         lambda t, a, k, out: t.add("su2.renormalizations", out[1])),
        (su2, "flow_diagnostics", "su2.flow_diagnostics", None),
        (su2, "momentum_isomorphism", "su2.momentum_isomorphism", None),
        (groupoid, "project_trajectory", "groupoid.project_trajectory",
         lambda t, a, k, out: t.add("groupoid.points_projected", len(out.times))),
        (kappa, "velocity_momentum_profile", "kappa.velocity_momentum_profile", None),
        (minkowski2d, "scattering_data", "minkowski2d.scattering", None),
        (minkowski2d, "scattering_limits_numeric", "minkowski2d.scattering", None),
        (fitting, "tail_velocity", "fitting.tail_velocity", None),
        (fitting, "central_derivative", "fitting.central_derivative", None),
        (cli, "minkowski2d_certificate", "cli.minkowski2d_certificate", None),
        (cli, "kappa_certificate", "cli.kappa_certificate", None),
        (cli, "su2_certificate", "cli.su2_certificate", None),
        (cli, "load_config", "cli.load_config", None),
        (cli, "run_scenario", "cli.run_scenario", None),
        (cli, "sweep_scenario", "cli.sweep_scenario", None),
        (cli, "build_artifact", lambda a: f"cli.build_artifact.{a[1]}", None),
        (cli, "write_artifact", "cli.write_artifact", _count_written),
        (cli, "write_manifest", "cli.write_manifest", _count_manifest),
        (cli, "scalar_summaries", "cli.scalar_summaries", None),
    ]
    modules = [m for n, m in list(sys.modules.items()) if n == "poismech" or n.startswith("poismech.")]
    patches = []
    for owner, attr, span, after in functions:
        original = getattr(owner, attr)
        wrapped = _wrap(tracer, original, span, after)
        patches += [(mod, key, original, wrapped)
                    for mod in modules for key, value in vars(mod).items() if value is original]
    methods = [
        (bracket.BivectorSpec, "matrix", "bracket.matrix"),
        (generators.GeneratorField, "flow", "generators.flow"),
    ]
    for cls, attr, span in methods:
        original = vars(cls)[attr]
        patches.append((cls, attr, original, _wrap(tracer, original, span)))
    return patches


def switch(patches: list[tuple[Any, str, Callable, Callable]], traced: bool) -> None:
    for owner, attr, original, wrapped in patches:
        setattr(owner, attr, wrapped if traced else original)
