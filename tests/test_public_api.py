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
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prnls"

#: entry points that stand without a caller: the oracle's documented amplitude
#: search, and criterion 07's convergence test (its caller is the certify command
#: the roadmap plans)
ALLOWED = {"prnls.radial_oracle.find_ground_u0", "prnls.symbol.multiplier_convergence_test"}


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


def used_functions(sources: dict[str | None, list[ast.Module]]) -> set[str]:
    """Dotted names (prnls.module.function) that the sources reference.

    sources maps a module's dotted name (None for files outside the package)
    to its parsed trees; the package's re-exports are read from sources["prnls"].
    """
    exports = {}
    for tree in sources.get("prnls", []):
        for node in tree.body:
            for name, target in _imported_prnls(node, "prnls"):
                exports[f"prnls.{name}"] = target
    modules = {m for m in sources if m}

    used = set()
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
                        used.add(exports.get(bound[node.id], bound[node.id]))
                    elif module:
                        used.add(f"{module}.{node.id}")
                elif isinstance(node, ast.Attribute):
                    target = resolve(node)
                    if target:
                        used.add(target)
    return used


def test_every_public_function_has_a_caller():
    public = {f"{_module_name(path)}.{node.name}"
              for path, tree in _trees(PACKAGE) for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    sources = {}
    for path, tree in _trees(PACKAGE, ROOT / "perfbench"):
        sources.setdefault(_module_name(path), []).append(tree)
    orphans = sorted(public - used_functions(sources) - ALLOWED)
    assert not orphans, f"public functions with no caller in src/ or perfbench/: {orphans}"


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
