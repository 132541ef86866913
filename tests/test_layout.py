"""Structure guard: every module-level definition in src/kinetics has a use.

A function or class defined in module M counts as used in one of three ways:
its name is loaded somewhere in M; some package module imports it with
``from .M import name`` (kinetics/__init__.py does so for the public API); or
some package module refers to ``M.name`` after importing M from the package.
A bare name elsewhere does not count, so a local variable that shares the
name cannot hide an unused definition. Anything else is code that only tests
call, and belongs in the tests or nowhere.
"""

import ast
from pathlib import Path

import kinetics

PACKAGE = Path(kinetics.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _uses(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(defining module, name) pairs that this module uses."""
    imported_modules = {}  # local name -> package module
    uses = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    imported_modules[alias.asname or alias.name] = alias.name
                else:
                    uses.add((node.module, alias.name))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported_modules):
            uses.add((imported_modules[node.value.id], node.attr))
    return uses


def test_every_definition_is_used_in_src_or_exported():
    trees = _trees()
    used = set().union(*(_uses(module, tree) for module, tree in trees.items()))
    unused = [f"{module}.py:{node.name}" for module, tree in trees.items()
              for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
              and (module, node.name) not in used]
    assert unused == []


def test_only_errors_py_sets_frozen_fields():
    # errors.frozen_array is the one way a value type stores its array field
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "errors.py"
                 and "object.__setattr__(" in path.read_text(encoding="utf-8")]
    assert offenders == []



def test_every_array_field_of_a_value_type_is_frozen():
    # each np.ndarray field of a frozen dataclass is stored in __post_init__ by
    # frozen_array(self, "<field>", ...), so no value type aliases a caller's array
    missing = []
    for module, tree in _trees().items():
        for cls in ast.walk(tree):
            if not (isinstance(cls, ast.ClassDef)
                    and "dataclass(frozen=True)" in map(ast.unparse, cls.decorator_list)):
                continue
            post_init = "".join(ast.unparse(item) for item in cls.body
                                if isinstance(item, ast.FunctionDef)
                                and item.name == "__post_init__")
            missing += [f"{module}.py:{cls.name}.{item.target.id}" for item in cls.body
                        if isinstance(item, ast.AnnAssign)
                        and ast.unparse(item.annotation) == "np.ndarray"
                        and f"frozen_array(self, '{item.target.id}'," not in post_init]
    assert missing == []
