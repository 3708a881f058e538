"""Guard against helpers that only tests call.

Every top-level function, class, method and module constant in
src/nilcoh/*.py should be read somewhere in src/nilcoh/.  A name counts
as read when it appears as a Name node in Load context or as the
attribute of an Attribute node, anywhere in the package.  Dunder names
are left out: the interpreter reads them.

The guard is a floor, not a proof.  It matches names, not bindings, so a
method whose name another class shares (`multiply` on WeylGroup, `one`
on CycScalar) or that coincides with an attribute (`label`) counts as
read, and a function that only calls itself counts as read too.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "nilcoh"

# name -> why it stays although nothing in src/ reads it
UNREAD_IN_SRC = {
    "rank_mod_p": "dense linalg view; nilbench/trace_runner.py patches it",
    "rref_mod_p": "dense linalg view; nilbench/trace_runner.py patches it",
    "nullspace_mod_p": "dense linalg view; nilbench/trace_runner.py"
                       " patches it",
    "solve_mod_p": "dense linalg view; nilbench/trace_runner.py patches it",
    "rank_frac": "dense linalg view; nilbench/trace_runner.py patches it",
    "solve_frac": "dense linalg view; nilbench/trace_runner.py patches it",
    "d_matrix": "CEComplex's dense differential; nilbench/trace_runner.py"
                " patches it",
    "inversion_set": "WeylGroup's list view of the inversion mask;"
                     " nilbench/trace_runner.py patches it",
    "multiply_classes": "CohomologyRing's product cache;"
                        " nilbench/trace_runner.py counts its calls",
    "chevalley_constants": "the structure constants of all of n^+; tests"
                           " pin their Jacobi identity and sign hash",
    "quantum_straighten": "the reference that tests compare mask_scalar"
                          " with, by adjacent swaps",
}


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _definitions(tree):
    """Top-level functions, classes and constants, and the methods of
    top-level classes, by name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            yield node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if isinstance(sub, (ast.FunctionDef,
                                        ast.AsyncFunctionDef)):
                        yield sub.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _reads(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr


def test_every_source_name_is_read_in_src():
    defined, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        defined.update(_definitions(tree))
        read.update(_reads(tree))
    unread = {name for name in defined - read if not _is_dunder(name)}
    assert unread == set(UNREAD_IN_SRC)

