"""Knob and field guards.

Every defaulted parameter of a public vulab function or method, and every
defaulted field of a vulab dataclass, is set by at least one call inside the
package.  A default no caller overrides is a constant in disguise; it belongs
next to the code that reads it as a named module constant, not in the
signature.

Every dataclass field, and every attribute a vulab class assigns on self, is
read as an attribute somewhere in the package.  A field nothing reads is
state that only costs its upkeep; a field that restates another belongs in a
property of that field."""

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
}

# (module, class, field) -> why the field stays without a reader
LOCKSTEP = ("read by the tests that compare the lockstep batch with the "
            "one-point reference")
FIELDS_ALLOWED = {
    ("subjets", "ShellTrace", "ts"): LOCKSTEP,
    ("subjets", "RankOneResult", "shells"): LOCKSTEP,
    ("subjets", "MembershipResult", "min_margin"): LOCKSTEP,
    ("subjets", "HessianBundle", "source"): "reserved for Direction 2",
}


def _modules():
    return {p.stem: ast.parse(p.read_text(), filename=str(p))
            for p in sorted(PACKAGE.glob("*.py"))}


def _is_dataclass(cls):
    return any(ast.unparse(d).split("(")[0] in ("dataclass",
                                                 "dataclasses.dataclass")
               for d in cls.decorator_list)


def _empty_storage(value):
    """field(default_factory=dict) or list: a container filled after
    construction, not a setting."""
    return (isinstance(value, ast.Call) and ast.unparse(value.func) == "field"
            and any(kw.arg == "default_factory"
                    and ast.unparse(kw.value) in ("dict", "list")
                    for kw in value.keywords))


class Signature:
    """Parameters of a public function, method or dataclass constructor:
    `positional` in call order, `defaulted` the ones a call may omit."""

    def __init__(self, positional, defaulted):
        self.positional = positional
        self.defaulted = defaulted

    @classmethod
    def of_function(cls, fn, method=False):
        args = fn.args
        positional = [a.arg for a in args.posonlyargs + args.args]
        names = positional[len(positional) - len(args.defaults):]
        names += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
        bound = method and "staticmethod" not in map(ast.unparse,
                                                     fn.decorator_list)
        return cls(positional[1:] if bound else positional, names)

    @classmethod
    def of_dataclass(cls, node):
        fields = [s for s in node.body if isinstance(s, ast.AnnAssign)
                  and isinstance(s.target, ast.Name)]
        return cls([s.target.id for s in fields],
                   [s.target.id for s in fields if s.value is not None
                    and not s.target.id.startswith("_")
                    and not _empty_storage(s.value)])


def _public_callables(modules):
    """(module, name) -> Signature for every public module-level function and
    dataclass, and (module, "Class.method") for every public method of a
    public class."""
    out = {}
    for mod, tree in modules.items():
        for node in tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    or node.name.startswith("_")):
                continue
            if isinstance(node, ast.FunctionDef):
                out[(mod, node.name)] = Signature.of_function(node)
            elif isinstance(node, ast.ClassDef):
                if _is_dataclass(node):
                    out[(mod, node.name)] = Signature.of_dataclass(node)
                for fn in node.body:
                    if (isinstance(fn, ast.FunctionDef)
                            and not fn.name.startswith("_")):
                        out[(mod, f"{node.name}.{fn.name}")] = \
                            Signature.of_function(fn, method=True)
    return out


def _resolve(mod, tree, modules, callables):
    """Call node -> the (module, name) keys it may call: own functions and
    classes, `from .m import f [as g]`, `m.f` with m a sibling module,
    `cls(...)` inside a class, and `obj.meth(...)` for every public method
    of that name."""
    names = {node.name: (mod, node.name) for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    siblings = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                if node.module is None:
                    siblings.add(alias.asname or alias.name)
                elif node.module in modules:
                    names[alias.asname or alias.name] = (node.module, alias.name)
    methods = {}
    for key in callables:
        if "." in key[1]:
            methods.setdefault(key[1].split(".")[1], []).append(key)
    owner = {}
    for cls in tree.body:
        if isinstance(cls, ast.ClassDef):
            for node in ast.walk(cls):
                owner[id(node)] = (mod, cls.name)

    def callee(call):
        func = call.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and id(call) in owner:
                return [owner[id(call)]]
            return [names[func.id]] if func.id in names else []
        if isinstance(func, ast.Attribute):
            if isinstance(func.value, ast.Name) and func.value.id in siblings:
                return [(func.value.id, func.attr)]
            return methods.get(func.attr, [])
        return []
    return callee


def unpassed_defaults(modules=None):
    """Sorted (module, callable, parameter) of every defaulted parameter or
    field that no call in the package (or in `modules`, name -> parsed
    source) passes."""
    modules = _modules() if modules is None else modules
    callables = _public_callables(modules)
    passed = set()
    for mod, tree in modules.items():
        callee = _resolve(mod, tree, modules, callables)
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            for key in callee(node):
                if key not in callables:
                    continue
                fn = callables[key]
                if any(isinstance(a, ast.Starred) for a in node.args) or any(
                        kw.arg is None for kw in node.keywords):
                    passed.update((*key, p) for p in fn.defaulted)
                    continue
                passed.update((*key, p)
                              for p in fn.positional[:len(node.args)])
                passed.update((*key, kw.arg) for kw in node.keywords)
    return sorted((*key, p) for key, fn in callables.items()
                  for p in fn.defaulted if (*key, p) not in passed)


def test_every_default_is_passed_by_a_caller():
    assert [k for k in unpassed_defaults() if k not in ALLOWED] == []


def test_allowlist_names_live_parameters():
    assert set(ALLOWED) <= set(unpassed_defaults())


SAMPLE = {
    "a": """
from dataclasses import dataclass, field

@dataclass
class Box:
    size: int
    color: str = "red"
    label: str = None
    items: list = field(default_factory=list)
    _note: str = ""

    def scale(self, by=2.0, *, clip=True):
        return by

def make(**kw):
    return Box(1, label="x").scale(clip=False)
""",
    "b": """
from . import a

def build(spec):
    return a.Box(**spec)
""",
}


def test_scan_sees_methods_and_dataclass_fields():
    """An unpassed method parameter and an unpassed dataclass field are
    flagged; passed ones, private fields and empty containers are not, and
    `Box(**spec)` passes every field."""
    modules = {name: ast.parse(text) for name, text in SAMPLE.items()}
    assert unpassed_defaults(modules) == [("a", "Box.scale", "by")]
    del modules["b"]
    assert unpassed_defaults(modules) == [("a", "Box", "color"),
                                          ("a", "Box.scale", "by")]


def unread_fields(modules=None):
    """Sorted (module, class, field) of every dataclass field and every
    attribute a class assigns on self whose name no attribute read in the
    package (or in `modules`) uses.  Reads are matched by name alone, so a
    field counts as read when any object's attribute of that name is."""
    modules = _modules() if modules is None else modules
    read = {node.attr for tree in modules.values() for node in ast.walk(tree)
            if isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Load)}
    out = set()
    for mod, tree in modules.items():
        for cls in tree.body:
            if not isinstance(cls, ast.ClassDef):
                continue
            names = set()
            if _is_dataclass(cls):
                names.update(Signature.of_dataclass(cls).positional)
            names.update(node.attr for node in ast.walk(cls)
                         if isinstance(node, ast.Attribute)
                         and isinstance(node.ctx, ast.Store)
                         and isinstance(node.value, ast.Name)
                         and node.value.id == "self")
            out.update((mod, cls.name, name) for name in names
                       if name not in read)
    return sorted(out)


def test_every_field_is_read():
    assert [k for k in unread_fields() if k not in FIELDS_ALLOWED] == []


def test_field_allowlist_names_unread_fields():
    assert set(FIELDS_ALLOWED) <= set(unread_fields())


FIELD_SAMPLE = {
    "a": """
from dataclasses import dataclass

@dataclass
class Point:
    x: float
    y: float
    label: str = ""

    def norm(self):
        return (self.x ** 2 + self.y ** 2) ** 0.5

class Counter:
    def __init__(self):
        self.count = 0
        self.spare = None
        self._seen = set()

    def bump(self, item):
        self._seen.add(item)
        self.count = self.count + 1
""",
    "b": """
def show(point):
    return point.label
""",
}


def test_field_scan_sees_dataclass_fields_and_self_attributes():
    """An unread dataclass field and an unread attribute set on self are
    flagged; a field read in another module, or through self, is not."""
    modules = {name: ast.parse(text) for name, text in FIELD_SAMPLE.items()}
    assert unread_fields(modules) == [("a", "Counter", "spare")]
    del modules["b"]
    assert unread_fields(modules) == [("a", "Counter", "spare"),
                                      ("a", "Point", "label")]


def test_config_dataclasses_are_gone():
    from vulab import subjets
    assert not hasattr(subjets, "RankOneConfig")
    assert not hasattr(subjets, "MembershipConfig")
    assert not hasattr(subjets, "rank1_support")
    assert not hasattr(subjets, "dini_second")


def test_ulag_context_has_no_fallbacks():
    """cli passes the U' basis and the V'-ball radius; a context never
    falls back to the frame's."""
    from dataclasses import MISSING, fields
    from vulab.ulagrangian import ULagContext
    spec = {f.name: f for f in fields(ULagContext)}
    for name in ("uprime_basis", "eps_v"):
        assert spec[name].default is MISSING
