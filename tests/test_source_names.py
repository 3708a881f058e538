"""Guard against helpers that only tests call.

Every top-level function, class, method and module constant in
src/nilcoh/*.py should be read somewhere in src/nilcoh/.  A name counts
as read when it appears as a Name node in Load context or as the
attribute of an Attribute node, anywhere in the package.  Dunder names
are left out: the interpreter reads them.

The guard is a floor, not a proof.  It matches names, not bindings, so a
method whose name is also a local variable's (`one` on CycScalar) or
that coincides with an attribute (`label`) counts as read, and a
function that only calls itself counts as read too.

Likewise every attribute stored as `self.x = ...` should be read in
src/nilcoh/, as `.x` in Load context or as getattr/hasattr with "x".  It
matches names too, so an attribute that shares its name with one read
elsewhere is not seen.

A third guard keeps the package free of the modules that leave work for
interpreter teardown, which the process entry point skips, and a fourth
keeps every exception class the package defines a `PreconditionError`,
the one refusal that the CLI maps to exit 2.
"""

import ast
import builtins
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


# attribute -> why it is stored although nothing in src/ reads it
STORED_UNREAD_IN_SRC = {
    "order": "nilbench/trace_runner.py reads g.order",
}


def _stored_on_self(tree):
    """The attributes stored as `self.x = ...` (plain, annotated, augmented
    or in a tuple target) anywhere in the module."""
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name)
                and node.value.id == "self"):
            yield node.attr


def _attribute_reads(tree):
    """`.x` in Load context, and the literal name in getattr(o, "x") or
    hasattr(o, "x")."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Name)
              and node.func.id in ("getattr", "hasattr")
              and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            yield node.args[1].value


def test_every_stored_attribute_is_read_in_src():
    """A table built in __init__ and read nowhere costs every process that
    builds the object; a test that needs such a table builds it itself."""
    stored, read = set(), set()
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        stored.update(_stored_on_self(tree))
        read.update(_attribute_reads(tree))
    assert stored - read == set(STORED_UNREAD_IN_SRC)


def _class_bases(tree):
    """class name -> the names of its bases (`x.Error` read as `Error`)."""
    return {node.name: [base.id if isinstance(base, ast.Name) else base.attr
                        for base in node.bases
                        if isinstance(base, (ast.Name, ast.Attribute))]
            for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}


def test_every_exception_class_is_a_refusal():
    """An exception class of the package derives from PreconditionError,
    directly or through RegimeError or BudgetError, so `cli.main` maps it
    to exit 2 in its one refusal clause; a bug raises a built-in exception
    and exits 1.  Bases are resolved by name."""
    bases = {}
    for path in sorted(SRC.glob("*.py")):
        bases.update(_class_bases(ast.parse(path.read_text(),
                                            filename=str(path))))

    def ancestors(name):
        found, stack = set(), list(bases.get(name, ()))
        while stack:
            base = stack.pop()
            if base not in found:
                found.add(base)
                stack.extend(bases.get(base, ()))
        return found

    def is_exception(name):
        return any(isinstance(getattr(builtins, base, None), type)
                   and issubclass(getattr(builtins, base), BaseException)
                   for base in ancestors(name))

    strays = {name for name in bases if is_exception(name)
              and name != "PreconditionError"
              and "PreconditionError" not in ancestors(name)}
    assert not strays, (
        f"{sorted(strays)} do not derive from PreconditionError, so the CLI"
        " would report them as internal errors (exit 1)")


# Modules that can leave work for interpreter teardown: atexit handlers,
# threads to join, temporary files to remove, log handlers to flush,
# worker processes to stop.  `nilcoh.cli.run` ends the process with
# os._exit, which skips all of it.
TEARDOWN_MODULES = {"atexit", "threading", "tempfile", "logging",
                    "multiprocessing", "concurrent"}


def _teardown_uses(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)):
            names = [f"{node.value.id}.{node.attr}"]
        else:
            continue
        for name in names:
            if (name.partition(".")[0] in TEARDOWN_MODULES
                    or name == "weakref.finalize"):
                yield node.lineno, name


def test_no_module_leaves_work_for_interpreter_teardown():
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(SRC.glob("*.py"))
             for line, name in _teardown_uses(
                 ast.parse(path.read_text(), filename=str(path)))]
    assert not found, (
        "nilcoh.cli.run ends the process with os._exit and skips"
        " interpreter teardown; recheck that exit path before using "
        + ", ".join(found))


# The package modules that each of these files may import at module level.
# `nilcoh.cli` registers every other module with its `_lazy` helper, which
# runs a module's body only when a command first reads it; a module-level
# import would run it in every process.
EAGER_IMPORTS = {
    "cli.py": {"alcoves", "rootsystem", "weyl"},
    "verify.py": {"alcoves", "rootsystem", "weyl"},
}


def _package_modules(node):
    """The nilcoh modules that an import statement executes."""
    if isinstance(node, ast.Import):
        paths = [alias.name.split(".") for alias in node.names]
        paths = [path[1:] for path in paths if path[0] == "nilcoh"]
    elif node.level:  # `from . import x` executes x
        paths = [(node.module or alias.name).split(".")
                 for alias in node.names]
    elif node.module.split(".")[0] == "nilcoh":
        paths = [node.module.split(".")[1:] or [alias.name]
                 for alias in node.names]
    else:
        return
    for path in paths:
        if path and (SRC / f"{path[0]}.py").exists():
            yield path[0]


def _module_level_imports(tree):
    """(line, nilcoh module) of each import that runs when the module is
    executed; function bodies are skipped."""
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for module in _package_modules(node):
                yield node.lineno, module
        elif not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.Lambda)):
            stack.extend(ast.iter_child_nodes(node))


def test_cli_and_verify_import_lazily_run_modules_on_first_use():
    found = [f"{file}:{line}: {module}"
             for file, allowed in EAGER_IMPORTS.items()
             for line, module in sorted(_module_level_imports(
                 ast.parse((SRC / file).read_text(), filename=file)))
             if module not in allowed]
    assert not found, (
        "module-level imports of " + ", ".join(found) + " run those modules"
        " in every nilcoh process; reach them through nilcoh.cli._lazy (as"
        " cli.py does) or import them inside the one function that reads"
        " them (as verify.consistency_suite does)")
