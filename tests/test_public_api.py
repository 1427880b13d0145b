"""Guard: the package holds no code that only tests call.

Every public module-level function of prnls must be referenced, as an AST
name or attribute (an import or a mention in text does not count), somewhere
in the package sources or in the benchmark.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "prnls"

#: entry points that stand without a caller: the oracle's documented amplitude
#: search, and criterion 07's convergence test (its caller is the certify command
#: the roadmap plans)
ALLOWED = {"find_ground_u0", "multiplier_convergence_test"}


def _trees(*dirs):
    return [(path, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
            for d in dirs for path in sorted(d.rglob("*.py"))]


def test_every_public_function_has_a_caller():
    public = {(path.name, node.name) for path, tree in _trees(PACKAGE) for node in tree.body
              if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")}
    used = set()
    for _, tree in _trees(PACKAGE, ROOT / "perfbench"):
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    orphans = sorted(f"{module}:{name}" for module, name in public
                     if name not in used and name not in ALLOWED)
    assert not orphans, f"public functions with no caller in src/ or perfbench/: {orphans}"
