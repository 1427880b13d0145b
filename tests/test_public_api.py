"""Guard: the package holds no code that only tests call.

Every public module-level function of prnls must be referenced somewhere in
the package sources or in the benchmark, through a reference that resolves
to it (an import alone or a mention in text does not count):

* a name bound by ``from .x import f`` or ``from prnls.x import f``;
* ``module.f`` on an imported prnls module;
* ``prnls.f`` through the package's re-exports;
* a bare name inside the defining module.

An attribute that merely shares the function's name, such as
``report.residual`` beside ``variational.residual``, is not a caller.

Every optional parameter of such a function must likewise be passed, by
position or by keyword, by some call in the package or the benchmark that
resolves to the function; ``*args`` passes every positional parameter and
``**kwargs`` every one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prnls"

#: entry points that stand without a caller: criterion 07's convergence test (its
#: caller is the certify command the roadmap plans)
ALLOWED = {"prnls.symbol.multiplier_convergence_test"}


def _trees(*dirs):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


def _module_name(path: Path) -> str | None:
    """Dotted name of a package source; None for a file outside the package."""
    if path.parent != PACKAGE:
        return None
    return "prnls" if path.stem == "__init__" else f"prnls.{path.stem}"


def _imported_prnls(node, module: str | None):
    """(bound name, dotted target) for each prnls name an import statement binds."""
    if isinstance(node, ast.Import):
        for a in node.names:
            if a.name.split(".")[0] == "prnls":
                yield (a.asname, a.name) if a.asname else ("prnls", "prnls")
    elif isinstance(node, ast.ImportFrom):
        base = node.module or ""
        if node.level:
            package = module if module == "prnls" else (module or "").rpartition(".")[0]
            base = f"{package}.{base}" if base else package
        if base.split(".")[0] == "prnls":
            for a in node.names:
                yield a.asname or a.name, f"{base}.{a.name}"


def _references(sources: dict[str | None, list[ast.Module]]):
    """(dotted name, node) for each Name or Attribute node of the sources that resolves
    to a prnls name (prnls.module.function).

    sources maps a module's dotted name (None for files outside the package)
    to its parsed trees; the package's re-exports are read from sources["prnls"].
    """
    exports = {}
    for tree in sources.get("prnls", []):
        for node in tree.body:
            for name, target in _imported_prnls(node, "prnls"):
                exports[f"prnls.{name}"] = target
    modules = {m for m in sources if m}

    for module, trees in sources.items():
        for tree in trees:
            bound = {name: target for node in ast.walk(tree)
                     for name, target in _imported_prnls(node, module)}

            def resolve(node):
                if isinstance(node, ast.Name):
                    return bound.get(node.id)
                if isinstance(node, ast.Attribute):
                    base = resolve(node.value)
                    if base in modules:
                        dotted = f"{base}.{node.attr}"
                        return exports.get(dotted, dotted)
                return None

            for node in ast.walk(tree):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in bound:
                        yield exports.get(bound[node.id], bound[node.id]), node
                    elif module:
                        yield f"{module}.{node.id}", node
                elif isinstance(node, ast.Attribute):
                    target = resolve(node)
                    if target:
                        yield target, node


def used_functions(sources: dict[str | None, list[ast.Module]]) -> set[str]:
    """Dotted names (prnls.module.function) that the sources reference (_references)."""
    return {name for name, _ in _references(sources)}


def passed_parameters(sources: dict[str | None, list[ast.Module]]) -> dict[str, set]:
    """For each dotted name the sources call: the positions (0, 1, ...) and keywords its
    calls pass, "*" for a call with *args and "**" for one with **kwargs."""
    callee = {id(node): name for name, node in _references(sources)}
    passed = {}
    for trees in sources.values():
        for call in (n for tree in trees for n in ast.walk(tree) if isinstance(n, ast.Call)):
            if id(call.func) not in callee:
                continue
            got = passed.setdefault(callee[id(call.func)], set())
            for i, arg in enumerate(call.args):
                got.add("*" if isinstance(arg, ast.Starred) else i)
            got.update("**" if kw.arg is None else kw.arg for kw in call.keywords)
    return passed


def optional_parameters(tree: ast.Module):
    """(function name, parameter name, position or None) for each parameter with a
    default of each public module-level function of tree."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            a = node.args
            positional = a.posonlyargs + a.args
            for i in range(len(positional) - len(a.defaults), len(positional)):
                yield node.name, positional[i].arg, i
            for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                if default is not None:
                    yield node.name, arg.arg, None


def unpassed(name: str, position: int | None, passed: set) -> bool:
    """Whether no call passes the optional parameter name at position."""
    return not ({name, "**"} & passed or position is not None and {position, "*"} & passed)


def _package_and_benchmark():
    """The sources of the package and of the benchmark, keyed as _references takes them."""
    sources = {}
    for path, tree in _trees(PACKAGE, ROOT / "perfbench"):
        sources.setdefault(_module_name(path), []).append(tree)
    return sources


def test_every_public_function_has_a_caller():
    public = {f"{_module_name(path)}.{node.name}"
              for path, tree in _trees(PACKAGE) for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    orphans = sorted(public - used_functions(_package_and_benchmark()) - ALLOWED)
    assert not orphans, f"public functions with no caller in src/ or perfbench/: {orphans}"


def test_every_optional_parameter_is_passed():
    passed = passed_parameters(_package_and_benchmark())
    never = sorted(f"{_module_name(path)}.{fn}({name}=)"
                   for path, tree in _trees(PACKAGE)
                   for fn, name, position in optional_parameters(tree)
                   if unpassed(name, position, passed.get(f"{_module_name(path)}.{fn}", set())))
    assert not never, f"optional parameters no call in src/ or perfbench/ passes: {never}"


def test_a_parameter_counts_as_passed_by_position_keyword_or_unpacking():
    sources = {
        "prnls.model": ["def f(x, out=None, *, work=None, scale=1.0):\n    return x\n\n\n"
                        "def g(x, y=0, z=0):\n    return x\n"],
        "prnls.sweep": ["from .model import f, g\n\n\n"
                        "def run(args, kw):\n    f(1, None)\n    g(*args)\n"
                        "    return f(2, work=None), g(0, **kw)\n"],
    }
    trees = {m: [ast.parse(s) for s in srcs] for m, srcs in sources.items()}
    passed = passed_parameters(trees)
    assert passed["prnls.model.f"] == {0, 1, "work"}
    assert passed["prnls.model.g"] == {"*", 0, "**"}
    optional = list(optional_parameters(trees["prnls.model"][0]))
    assert optional == [("f", "out", 1), ("f", "work", None), ("f", "scale", None),
                        ("g", "y", 1), ("g", "z", 2)]
    assert [name for fn, name, pos in optional
            if unpassed(name, pos, passed[f"prnls.model.{fn}"])] == ["scale"]


def test_attribute_of_the_same_name_is_not_a_caller():
    sources = {
        "prnls": ["from .variational import energy, residual\nfrom . import sweep\n"],
        "prnls.variational": ["def energy(f):\n    return f\n\n\n"
                              "def residual(f):\n    return f\n"],
        "prnls.sweep": ["from .variational import energy\n\n\n"
                        "def make_record(f):\n    report = energy(f)\n"
                        "    return report.residual\n"],
        None: ["import prnls\nimport prnls.sweep as sw\n\n"
               "prnls.sweep.make_record(prnls.energy(0)).residual\nsw.residual\n"],
    }
    used = used_functions({m: [ast.parse(s) for s in srcs] for m, srcs in sources.items()})
    assert {"prnls.variational.energy", "prnls.sweep.make_record"} <= used
    assert "prnls.variational.residual" not in used
