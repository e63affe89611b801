"""Each app is the sole consumer of its ``rng`` while it computes.

``ESSApplication.compute`` draws a whole phase's page touches from
``self.rng`` before the phase's first slice.  A draw made anywhere else
while a ``compute`` call runs would land in the middle of that phase in
the plain per-slice order but after it once read up front, and so change
the run.  This scan keeps ``rng`` to the methods that may touch it.
"""

import ast
from pathlib import Path

import repro.apps

ALLOWED = {"__init__", "compute", "snapshot_token", "_restore_token"}


def rng_uses(path: Path):
    """(function, line) of every ``<expr>.rng`` in one source file."""
    tree = ast.parse(path.read_text(), filename=str(path))
    found = []

    def visit(node, func):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func = node.name
        if isinstance(node, ast.Attribute) and node.attr == "rng":
            found.append((func, node.lineno))
        for child in ast.iter_child_nodes(node):
            visit(child, func)

    visit(tree, None)
    return found


def test_app_rng_is_used_only_by_its_owning_methods():
    root = Path(repro.apps.__file__).parent
    stray = [f"{path.relative_to(root)}:{line} in {func}"
             for path in sorted(root.rglob("*.py"))
             for func, line in rng_uses(path) if func not in ALLOWED]
    assert stray == []


def test_scan_sees_the_known_uses():
    uses = {func for func, _ in rng_uses(Path(repro.apps.__file__).parent
                                         / "base.py")}
    assert uses == ALLOWED
