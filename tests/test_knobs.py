"""Knob guard: every defaulted parameter of a public vulab function is set by
at least one call inside the package.  A default no caller overrides is a
constant in disguise; it belongs next to the code that reads it as a named
module constant, not in the signature."""

import ast
from pathlib import Path

import vulab

PACKAGE = Path(vulab.__file__).resolve().parent

# (module, function, parameter) -> why the parameter stays without a caller
ALLOWED = {
    ("cli", "main", "argv"): "the console entry point reads sys.argv; tests "
                             "pass argv",
    ("subjets", "delta2", "fx"): "the scalar reference quotient of the tests",
    ("subjets", "limiting_hessians", "radii"): "reserved for Direction 2",
    ("subjets", "limiting_hessians", "n_dirs"): "reserved for Direction 2",
    ("subjets", "limiting_hessians", "gradient_tol"): "reserved for Direction 2",
    ("subjets", "limiting_hessians", "fd_step"): "reserved for Direction 2",
    ("subjets", "limiting_hessians", "include_center"):
        "reserved for Direction 2",
    ("subjets", "tilt_criterion_c11", "dir_grid"): "reserved for Direction 2",
    ("tilt", "strict_order2_test", "sample_per_axis"):
        "reserved for Direction 2",
    ("ulagrangian", "common_selection_check", "tilt_mags"):
        "reserved for Direction 3",
    ("tilt", "tilt_stability_test", "grid_size"):
        "the tilt-probe path is left for its speed-up",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _public_functions(modules):
    """(module, name) -> FunctionDef of every public module-level function."""
    return {(mod, node.name): node
            for mod, tree in modules.items() for node in tree.body
            if isinstance(node, ast.FunctionDef)
            and not node.name.startswith("_")}


def _defaulted(fn):
    args = fn.args
    positional = args.posonlyargs + args.args
    names = [a.arg for a in positional[len(positional) - len(args.defaults):]]
    names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
              if d is not None]
    return names


def _resolve(mod, tree, modules):
    """Callee name -> (module, function) for calls written in module mod:
    its own functions, `from .m import f [as g]` and `m.f` with m a sibling
    module."""
    names = {node.name: (mod, node.name) for node in tree.body
             if isinstance(node, ast.FunctionDef)}
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif node.module in modules:
                    names[alias.asname or alias.name] = (node.module, alias.name)

    def callee(func):
        if isinstance(func, ast.Name):
            return names.get(func.id)
        if (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
                and func.value.id in siblings):
            return (func.value.id, func.attr)
        return None
    return callee


def unpassed_defaults():
    """Sorted (module, function, parameter) of every defaulted parameter of
    a public function that no call in the package passes."""
    modules = _modules()
    functions = _public_functions(modules)
    passed = set()
    for mod, tree in modules.items():
        callee = _resolve(mod, tree, modules)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            key = callee(node.func)
            if key not in functions:
                continue
            fn = functions[key]
            positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    kw.arg is None for kw in node.keywords):
                passed.update((*key, p) for p in _defaulted(fn))
                continue
            passed.update((*key, p) for p in positional[:len(node.args)])
            passed.update((*key, kw.arg) for kw in node.keywords)
    return sorted((*key, p) for key, fn in functions.items()
                  for p in _defaulted(fn) if (*key, p) not in passed)


def test_every_default_is_passed_by_a_caller():
    assert [k for k in unpassed_defaults() if k not in ALLOWED] == []


def test_allowlist_names_live_parameters():
    assert set(ALLOWED) <= set(unpassed_defaults())


def test_config_dataclasses_are_gone():
    from vulab import subjets
    assert not hasattr(subjets, "RankOneConfig")
    assert not hasattr(subjets, "MembershipConfig")
    assert not hasattr(subjets, "rank1_support")
    assert not hasattr(subjets, "dini_second")
