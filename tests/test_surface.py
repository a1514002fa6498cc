"""Every public top-level function and class of the library is reached from
the library itself: a name used nowhere in ``src/mags`` but its own
definition is surface that no pipeline runs. Likewise every defaulted
parameter of a library function is set by some call in the library, its
tests or its benchmark: one that no call sets is a constant in disguise."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "mags"
CALLERS = (ROOT / "src", ROOT / "tests", ROOT / "perfbench")

# Public names kept although no library code calls them, each for a reason.
ALLOWED = set()


def names_read(node):
    """Names used in ``node``, bare or as an attribute. Imported names and
    the strings of ``__all__`` are neither, so they do not count."""
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def unused_public_names():
    statements = [(path.stem, stmt) for path in sorted(SRC.glob("*.py"))
                  for stmt in ast.parse(path.read_text(), str(path)).body]
    reads = [(stmt, names_read(stmt)) for _, stmt in statements]
    return [f"{module}.{stmt.name}" for module, stmt in statements
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
            and not any(stmt.name in names for other, names in reads if other is not stmt)]


def test_every_public_definition_is_used_by_the_library():
    assert sorted(set(unused_public_names()) - ALLOWED) == []


def test_allowed_names_are_still_defined_and_unused():
    # an entry that was deleted or wired in leaves the allow-list
    assert ALLOWED <= set(unused_public_names())


# Defaulted parameters kept although no call sets them, each for a reason.
ALLOWED_DEFAULTS = {}


def library_functions():
    """(qualified name, def) of every function and method in ``src/mags``."""
    for path in sorted(SRC.glob("*.py")):
        for stmt in ast.parse(path.read_text(), str(path)).body:
            if isinstance(stmt, ast.FunctionDef):
                yield f"{path.stem}.{stmt.name}", stmt
            elif isinstance(stmt, ast.ClassDef):
                for fn in stmt.body:
                    if isinstance(fn, ast.FunctionDef):
                        yield f"{path.stem}.{stmt.name}.{fn.name}", fn


def defaulted_parameters(fn, is_method):
    """(position among a call's positional arguments or None, name) of each
    defaulted parameter; a method's call does not pass ``self``."""
    args = fn.args
    positional = args.posonlyargs + args.args
    first = len(positional) - len(args.defaults)
    out = [(i - is_method, p.arg) for i, p in enumerate(positional) if i >= first]
    out += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
    return out


def calls_by_name():
    """Every call in the library, its tests and its benchmark, keyed by the
    called name, bare or as an attribute."""
    calls = {}
    for root in CALLERS:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                if isinstance(node, ast.Call):
                    func = node.func
                    name = getattr(func, "id", None) or getattr(func, "attr", None)
                    calls.setdefault(name, []).append(node)
    return calls


def sets(call, position, name):
    """Whether ``call`` may set the parameter: by keyword, by ``**kwargs``,
    at its position, or through a ``*args`` at or before it."""
    if any(kw.arg in (name, None) for kw in call.keywords):
        return True
    if position is None:
        return False
    return any(i == position or (isinstance(a, ast.Starred) and i <= position)
               for i, a in enumerate(call.args))


def unset_defaults():
    calls = calls_by_name()
    return [f"{qualname}({name})" for qualname, fn in library_functions()
            for position, name in defaulted_parameters(fn, qualname.count(".") == 2)
            if not any(sets(c, position, name) for c in calls.get(fn.name, []))]


def test_every_defaulted_parameter_is_set_by_some_call():
    assert sorted(set(unset_defaults()) - set(ALLOWED_DEFAULTS)) == []


def test_allowed_defaults_are_still_unset():
    assert set(ALLOWED_DEFAULTS) <= set(unset_defaults())
