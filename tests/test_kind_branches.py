"""Every branch on the model's kind is pinned with its reason.

Normal forms, classes and push tables run on one follow rule
(``GroupModel.factors`` and ``GroupModel.follows``) for F_N and
Z/m*Z/n alike.  This scan of ``src/hypwalk`` finds each function that
reads a ``.kind`` attribute or compares with ``FREE`` or
``FREE_PRODUCT``, and the set must equal ``KIND_BRANCHES``: a new branch
is either pinned here with its reason or folded into the follow rule.
"""

import ast
from pathlib import Path

import hypwalk

SRC = Path(hypwalk.__file__).resolve().parent
_KINDS = {"FREE", "FREE_PRODUCT"}
_NAMES = "letter names: a, b, ... on F_N, s and t on Z/m*Z/n"

KIND_BRANCHES = {
    "hypwalk.groups.GroupModel.alphabet": _NAMES,
    "hypwalk.groups.GroupModel.__str__": "the model's name, F_N or Z/m*Z/n",
    "hypwalk.config._parse_model": "config parsing: a free model takes a rank, a product orders",
    "hypwalk.classify.generators": "the generators s^i t^j of Z/m*Z/n, not one per factor",
    "hypwalk.report._probe_points": "probe words and boundary points spelled in " + _NAMES,
    "hypwalk.report._rn_probe": "rn-check's element, spelled in " + _NAMES,
    "hypwalk.report.run_experiment": "the report's model.kind field",
}


def _branches_on_kind(node: ast.AST) -> bool:
    if isinstance(node, ast.Attribute):
        return node.attr == "kind"
    if isinstance(node, ast.Compare):
        operands = []
        for x in (node.left, *node.comparators):
            operands += x.elts if isinstance(x, (ast.Tuple, ast.List, ast.Set)) else [x]
        return any(isinstance(x, ast.Name) and x.id in _KINDS for x in operands)
    return False


def _kind_branches() -> set:
    """The innermost function, class or module around each branch."""
    found = set()

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
            else:
                if _branches_on_kind(child):
                    found.add(scope)
                visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        module = "hypwalk" if path.stem == "__init__" else f"hypwalk.{path.stem}"
        visit(ast.parse(path.read_text()), module)
    return found


def test_kind_branches_are_pinned():
    assert _kind_branches() == set(KIND_BRANCHES)

