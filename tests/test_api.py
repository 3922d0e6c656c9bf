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
# the coordinate function x^i, for evaluating {x^i, g} with eval_bracket.
ENTRY_POINTS = {"bracket.coordinate_field"}


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


# Defaulted values that no call in src/, scripts/ or perfbench/ sets, kept on
# purpose:
DEFAULTS_KEPT = {
    # ROADMAP item 2 redefines the sampling box with relative thresholds
    "bracket.jacobi_certificate.box",
    # acceptance criterion 4 round-trips the energies through the Casimir
    "su2.energy_relations.radius2",
    # set after construction; a frozen run report (ROADMAP item 6) replaces it
    "flow.Trajectory.h_drift",
}


def _fields(cls: ast.ClassDef) -> list[ast.AnnAssign]:
    """The annotated fields of a dataclass or NamedTuple body, in order."""
    return [s for s in cls.body if isinstance(s, ast.AnnAssign) and isinstance(s.target, ast.Name)]


def _defaulted(module: str, tree):
    """(qualified name, (module, callee), position, keyword) of every
    defaulted parameter of a public def or method, and of every defaulted
    field of a public class; position is None for a keyword-only one."""
    for name, node in _public_defs(tree):
        if isinstance(node, ast.ClassDef):
            for pos, f in enumerate(_fields(node)):
                if f.value is not None:
                    yield f"{module}.{name}.{f.target.id}", (module, name), pos, f.target.id
            continue
        method = "." in name
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if method and not any(getattr(d, "id", "") == "staticmethod"
                                       for d in node.decorator_list) else 0
        callee = (None if method else module, name.rsplit(".", 1)[-1])
        for arg in positional[len(positional) - len(args.defaults):]:
            yield f"{module}.{name}.{arg.arg}", callee, positional.index(arg) - skip, arg.arg
        for arg, default in zip(args.kwonlyargs, args.kw_defaults):
            if default is not None:
                yield f"{module}.{name}.{arg.arg}", callee, None, arg.arg


def _imports(path: Path, tree) -> dict[str, tuple[str, str | None]]:
    """Local name -> (poismech module, name in it or None for the module
    itself), from every import of the file wherever it stands."""
    submodules = {p.stem for p in SRC.glob("*.py")}
    reexports = {}
    for node in ast.parse((SRC / "__init__.py").read_text(encoding="utf-8")).body:
        if isinstance(node, ast.ImportFrom) and node.module:
            reexports.update({a.asname or a.name: node.module for a in node.names})
    table = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.level and path.parent == SRC:
                package = node.module is None
                mod = node.module
            elif node.module and node.module.split(".")[0] == "poismech":
                package = node.module == "poismech"
                mod = node.module.partition(".")[2]
            else:
                continue
            for a in node.names:
                local = a.asname or a.name
                if package and a.name in submodules:
                    table[local] = (a.name, None)
                elif package:
                    table[local] = (reexports.get(a.name, ""), a.name)
                else:
                    table[local] = (mod, a.name)
        elif isinstance(node, ast.Import):
            for a in node.names:
                if a.name.startswith("poismech.") and a.asname:
                    table[a.asname] = (a.name.partition(".")[2], None)
    return table


def _calls(path: Path, tree):
    """((module or None, callee), number of positional arguments, keyword
    names) of every call in the file.  A ``*args`` passes every position; a
    ``**name`` passes the keys of the ``dict(...)`` or ``{...}`` assigned to
    ``name`` in the file, or every keyword when there is none."""
    module = path.stem if path.parent == SRC else None
    local_defs = {n.name for n in tree.body if isinstance(n, (ast.FunctionDef, ast.ClassDef))}
    imports = _imports(path, tree)
    spread = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1 and isinstance(node.targets[0], ast.Name):
            v = node.value
            if isinstance(v, ast.Call) and getattr(v.func, "id", None) == "dict":
                spread[node.targets[0].id] = {k.arg for k in v.keywords}
            elif isinstance(v, ast.Dict):
                spread[node.targets[0].id] = {k.value for k in v.keys if isinstance(k, ast.Constant)}
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if isinstance(func, ast.Name):
            if module is not None and func.id in local_defs:
                target = (module, func.id)
            else:
                mod, name = imports.get(func.id, (None, None))
                target = (mod, name or func.id) if mod is not None else (None, func.id)
        elif isinstance(func, ast.Attribute):
            owner = imports.get(getattr(func.value, "id", None), (None, "?"))
            target = (owner[0], func.attr) if owner[1] is None else (None, func.attr)
        else:
            continue
        n_pos = float("inf") if any(isinstance(a, ast.Starred) for a in node.args) else len(node.args)
        keywords = set()
        for k in node.keywords:
            if k.arg is not None:
                keywords.add(k.arg)
            else:
                keywords |= spread.get(getattr(k.value, "id", None), {"**"})
        yield target, n_pos, keywords


def test_every_defaulted_value_is_set_by_a_caller():
    """Each defaulted parameter or field of a public def, class or method of
    src/poismech is passed, by position, by keyword or through ``**kwargs``,
    by some call in src/, scripts/ or perfbench/.  A default that no caller
    overrides is a constant, and a knob only tests turn is one the engine
    does not need."""
    files = sorted(SRC.glob("*.py")) + sorted((ROOT / "scripts").rglob("*.py"))
    files += sorted(PERFBENCH.rglob("*.py"))
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in files}
    calls = [c for path, tree in trees.items() for c in _calls(path, tree)]
    defaulted = [d for path, tree in trees.items() if path.parent == SRC
                 for d in _defaulted(path.stem, tree)]
    unset = []
    for qualified, (module, callee), pos, keyword in defaulted:
        if qualified in DEFAULTS_KEPT:
            continue
        if not any(name == callee and mod in (None, module) and module in (None, mod)
                   and ((pos is not None and n_pos > pos) or keyword in keys or "**" in keys)
                   for (mod, name), n_pos, keys in calls):
            unset.append(qualified)
    print(f"{len(defaulted)} defaulted public parameters and fields, {len(unset)} never set")
    assert not unset, f"{len(defaulted)} defaulted, never set by a caller: {', '.join(unset)}"
