"""Guards on the package's public surface: the names the benchmark reaches
are there and work, and no public name of ``src/poismech`` serves only the
tests."""
import ast
import importlib
import json
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "poismech"
PERFBENCH = ROOT / "perfbench"

# Deliberate user-facing entry points that the engine does not call itself:
# the coordinate function x^i, for evaluating {x^i, g} with eval_bracket, and
# the projection of one state, the one-row case of project_trajectory.
ENTRY_POINTS = {"bracket.coordinate_field", "groupoid.groupoid_projection"}


def test_benchmark_api_is_present_and_its_first_jobs_pass(tmp_path, monkeypatch):
    """perfbench/ looks the package's functions up by name when it runs, so
    a deleted or renamed one would only show there.  Build every tracing
    patch (a missing name raises AttributeError), load the jobs of all three
    workloads, and run the first job of each kind once through its gate."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracing = importlib.import_module("tracing")
    workloads = importlib.import_module("workloads")
    assert tracing.instrument(tracing.Tracer())
    for workload in workloads.WORKLOADS:
        inputs = tmp_path / workload
        workloads.generate(workload, 1, inputs)
        specs = json.loads((inputs / "jobs.json").read_text(encoding="utf-8"))
        jobs, _ = workloads.load_jobs(workload, inputs, tmp_path / f"{workload}_out")
        first = {}
        for spec, job in zip(specs, jobs):
            first.setdefault(spec["kind"], job)
        for kind, job in first.items():
            assert job.check(job.run()) is None, f"{workload}: first {kind} job"


def _public_defs(tree):
    """(name, node) of every public top-level def and class, and of every
    public method as ``Class.method``."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("_"):
                        yield f"{node.name}.{sub.name}", sub


def _references(tree) -> Counter:
    """Every name used under ``tree``: loaded names, attribute names, and
    string constants that are identifiers (lookups by name, as in the
    tracer's tables), except the strings of ``__all__``.  Imports alone do
    not count."""
    exported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            exported.update(id(n) for n in ast.walk(node.value))
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and node.value.isidentifier() and id(node) not in exported):
            names[node.value] += 1
    return names


def test_no_public_name_serves_only_the_tests():
    """Each public def, class and method of src/poismech is used somewhere in
    src/ outside its own definition, ``__all__`` and ``__init__.py``, or in
    scripts/ or perfbench/.  A name that only tests call belongs in the test."""
    files = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")
    files += sorted((ROOT / "scripts").rglob("*.py")) + sorted(PERFBENCH.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    used = sum((_references(tree) for tree in trees.values()), Counter())
    test_only = []
    for path in files:
        if path.parent != SRC:
            continue
        for name, node in _public_defs(trees[path]):
            short = name.rsplit(".", 1)[-1]
            qualified = f"{path.stem}.{name}"
            if qualified not in ENTRY_POINTS and used[short] <= _references(node)[short]:
                test_only.append(qualified)
    assert not test_only, f"used only by tests: {', '.join(test_only)}"
