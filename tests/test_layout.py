"""Structure guard: every module-level definition in src/kinetics has a use.

A function or class defined in module M counts as used in one of three ways:
its name is loaded somewhere in M; some package module imports it with
``from .M import name``, or lists it under M in its ``_IMPORTS`` table, the
lazy imports that kinetics/__init__.py (the public API) and the CLI keep; or
some package module refers to ``M.name`` after importing M from the package.
A bare name elsewhere does not count, so a local variable that shares the
name cannot hide an unused definition. Anything else is code that only tests
call, and belongs in the tests or nowhere. A module-level constant is held to
the same rule, so none survives only because a test reads it. A dunder, such as
a module's ``__getattr__``, is the interpreter's to call.
"""

import ast
import re
from pathlib import Path

import kinetics

PACKAGE = Path(kinetics.__file__).parent


def _trees():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _imports(tree: ast.Module) -> tuple[dict[str, str], dict[str, tuple[str, str]]]:
    """This module's package imports: local name -> module, and local name ->
    (defining module, name). An ``_IMPORTS`` table {module: (name, ...)} counts
    as ``from . import module`` and ``from .module import name`` for each name."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    modules[alias.asname or alias.name] = alias.name
                else:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    for node in tree.body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == "_IMPORTS":
            for key, value in zip(node.value.keys, node.value.values):
                modules[key.value] = key.value
                names.update((item.value, (key.value, item.value)) for item in value.elts)
    return modules, names


def _uses(module: str, tree: ast.Module) -> set[tuple[str, str]]:
    """(defining module, name) pairs that this module uses."""
    imported_modules, imported_names = _imports(tree)
    uses = set(imported_names.values())
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            uses.add((module, node.id))
        elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in imported_modules):
            uses.add((imported_modules[node.value.id], node.attr))
    return uses


def _defined_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement defines: a function, a class or a constant."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [target.id for target in targets if isinstance(target, ast.Name)]
    return []


def test_every_definition_is_used_in_src_or_exported():
    trees = _trees()
    used = set().union(*(_uses(module, tree) for module, tree in trees.items()))
    unused = [f"{module}.py:{name}" for module, tree in trees.items()
              for node in tree.body for name in _defined_names(node)
              if (module, name) not in used
              and not (name.startswith("__") and name.endswith("__"))]
    assert unused == []


# Public names that no src/kinetics module uses, and why each belongs in the API
PUBLIC_BY_DESIGN = {
    "inverse_collide": "the impact rules' inverse",
    "jacobian_analytic": "the impact rules' Jacobian",
    "match_generator": "an S^3 group operation of the paper",
    "pushforward_derivative": "an S^3 group operation of the paper",
    "quaternion_multiply": "an S^3 group operation of the paper",
    "unproject_chart": "an S^3 group operation of the paper",
    "load_phase_grid": "the reader of the CLI's phase_snapshot.bin",
}


def test_every_public_name_is_used_in_src_or_allowlisted():
    # a name that only tests call is not API: it moves into the tests or goes.
    # __init__'s own _IMPORTS table lists the names, so it is not a use.
    trees = _trees()
    public = trees.pop("__init__")
    used = set().union(*(_uses(module, tree) for module, tree in trees.items()))
    unused = sorted(name for name, pair in _imports(public)[1].items() if pair not in used)
    assert unused == sorted(PUBLIC_BY_DESIGN)


def test_only_errors_py_sets_frozen_fields():
    # errors.frozen_array is the one way a value type stores its array field
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "errors.py"
                 and "object.__setattr__(" in path.read_text(encoding="utf-8")]
    assert offenders == []


def test_every_error_class_is_raised_or_is_the_base_of_one_that_is():
    # a rule's error class goes with the rule: none lingers in errors.py once no
    # raise in src/kinetics names it or a class derived from it
    trees = _trees()
    bases = {node.name: {ast.unparse(base) for base in node.bases}
             for node in trees["errors"].body if isinstance(node, ast.ClassDef)}
    pending = {ast.unparse(getattr(node.exc, "func", node.exc)).rpartition(".")[2]
               for tree in trees.values() for node in ast.walk(tree)
               if isinstance(node, ast.Raise) and node.exc is not None} & set(bases)
    live = set()
    while pending:
        name = pending.pop()
        live.add(name)
        pending |= (bases[name] & set(bases)) - live
    assert sorted(set(bases) - live) == []


def test_only_errors_py_reads_a_3_vector():
    # errors.require_vector3 is the one way an argument is read as a 3-vector; a
    # reshape would also take a (1, 3) or (3, 1) array and name no argument when it fails
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "errors.py"
                 and re.search(r"\.reshape\((1, )?3\)", path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_only_errors_py_reads_a_number():
    # errors.require_real is the one reading of a number, and the CLI's config keys call
    # the rules built on it: a second reading, such as a bool test or a float-range bound
    # at a call site, would accept or name a value otherwise than the library does
    reading = re.compile(r"numbers\.Real|isinstance\([^)]*\bbool\b|sys\.float_info")
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "errors.py" and reading.search(path.read_text(encoding="utf-8"))]
    assert offenders == []


def test_only_dsmc_py_draws_normals():
    # every other random direction is collision_operator._directions of two uniforms:
    # randomized quasi-Monte Carlo draws would swap only the source of the uniforms,
    # and numpy has no inverse normal CDF to feed a normal draw from them. DSMC, the
    # independent oracle, keeps its own draws, whose bits test_dsmc_reference.py pins.
    offenders = [f"{module}.py:{node.lineno}" for module, tree in _trees().items()
                 if module != "dsmc"
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                 and node.func.attr in ("standard_normal", "normal")]
    assert offenders == []


def test_no_package_module_imports_the_cli():
    # the CLI sits on top: it loads the modules its subcommand runs and lays out
    # every artifact, so none of them imports it back
    offenders = [f"{module}.py:{node.lineno}" for module, tree in _trees().items()
                 for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) and node.level == 1
                 and (node.module == "cli"
                      or (node.module is None and "cli" in [a.name for a in node.names]))]
    assert offenders == []


# (module, top-level function) that sets numpy's error state, and why. Elsewhere the
# caller's state governs: the CLI computes under one errstate(all="ignore") and names
# each non-finite result, and a library caller sees numpy's default warnings.
ERRSTATE_BY_DESIGN = {
    ("cli", "run"): "the one policy: a subcommand computes non-stop, and its results "
                    "cross finiteness checks that name the failure",
    ("collision_operator", "_map"): "workers run under the caller's error state, which "
                                    "threads do not inherit",
    ("collision_operator", "evaluate_at"): "for a probe far past the hull, the integrand "
                                           "is 0 where the f terms vanish",
    ("transport_solver", "exact_solution"): "a foot past the float range is left to f0",
}


def test_only_the_allowlisted_functions_set_numpys_error_state():
    # one floating-point policy: each errstate or seterr outside the allowlist is a
    # local suppression that the policy replaces
    found = []
    for module, tree in _trees().items():
        for top in tree.body:
            found += [(module, getattr(top, "name", None)) for node in ast.walk(top)
                      if isinstance(node, ast.Call)
                      and (node.func.attr if isinstance(node.func, ast.Attribute)
                           else getattr(node.func, "id", None)) in ("errstate", "seterr")]
    assert sorted(found) == sorted(ERRSTATE_BY_DESIGN)


def test_no_array_is_unsealed():
    # frozen_array adopts a sealed array, so the package may seal arrays but never
    # make one writeable again: every setflags call passes exactly write=False
    offenders = [f"{module}.py:{node.lineno}" for module, tree in _trees().items()
                 for node in ast.walk(tree)
                 if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                     and node.func.attr == "setflags"
                     and (node.args or [(k.arg, ast.unparse(k.value))
                                        for k in node.keywords] != [("write", "False")]))
                 or (isinstance(node, ast.Attribute) and node.attr == "writeable"
                     and isinstance(node.ctx, ast.Store))]
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


# (module, function, parameter) left at its default by every src caller, and why
UNSET_BY_DESIGN = {
    ("cli", "main", "argv"): "entry point: None reads the process arguments",
    ("claim_audit", "audit_energy_formula", "n_configs"):
        "the acceptance test runs 300 configs for a stronger oracle",
    ("sphere_group", "embed", "hemisphere"): "the chart's two embeddings",
    ("sphere_group", "match_generator", "hemisphere"): "the chart's two embeddings",
}


def _callee(func, local, modules):
    """(defining module or None, name) of a called expression; None for a module-level
    name that this module neither defines nor imports from the package."""
    if isinstance(func, ast.Name):
        return local.get(func.id, (None, func.id))
    if isinstance(func, ast.Attribute):
        if isinstance(func.value, ast.Name) and func.value.id in modules:
            return modules[func.value.id], func.attr
        return None, func.attr
    return None


def test_every_defaulted_parameter_is_set_by_a_src_caller():
    # a default that no call in src/kinetics overrides is a parameter nothing sets;
    # make it the code. Module-level functions are matched through the package's
    # imports, methods and nested functions by their bare name.
    trees = _trees()
    passed = set()
    for module, tree in trees.items():
        local = {node.name: (module, node.name) for node in tree.body
                 if isinstance(node, ast.FunctionDef)}
        modules, imported = _imports(tree)
        local.update(imported)
        for call in (node for node in ast.walk(tree) if isinstance(node, ast.Call)):
            target = _callee(call.func, local, modules)
            passed |= {(target, index) for index in range(len(call.args))}
            passed |= {(target, keyword.arg) for keyword in call.keywords}
    unset = []
    for module, tree in trees.items():
        top = {id(node) for node in tree.body}
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            target = (module if id(node) in top else None, node.name)
            params = node.args.posonlyargs + node.args.args
            first = len(params) - len(node.args.defaults)
            offset = 1 if id(node) in methods else 0  # self
            defaulted = [(index - offset, params[index].arg)
                         for index in range(first, len(params))]
            defaulted += [(None, param.arg) for param, default
                          in zip(node.args.kwonlyargs, node.args.kw_defaults)
                          if default is not None]
            unset += [f"{module}.py:{node.name}({name})" for index, name in defaulted
                      if (target, index) not in passed and (target, name) not in passed
                      and (module, node.name, name) not in UNSET_BY_DESIGN]
    assert unset == []


def test_the_estimator_hot_path_calls_no_clip():
    # measured on 2 cores with (3, 8192) index arrays: two threads calling np.clip
    # got 0.71-1.03x the throughput of one, since its short calls queue on the GIL;
    # np.maximum then np.minimum with out= got 1.3-1.6x in 4 of 5 runs (0.81x in
    # one). take(..., mode="clip") is an argument, not a call to clip.
    offenders = [f"{module}.py:{node.lineno}" for module, tree in _trees().items()
                 if module in ("distribution", "collision_operator")
                 for node in ast.walk(tree)
                 if isinstance(node, ast.Call)
                 and (node.func.attr if isinstance(node.func, ast.Attribute)
                      else getattr(node.func, "id", None)) == "clip"]
    assert offenders == [], ("np.clip scaled to 0.71-1.03x at 2 threads; use np.maximum "
                             "and np.minimum with out= (1.3-1.6x)")
