"""Every public top-level function and class of the library is reached from
the library itself: a name used nowhere in ``src/mags`` but its own
definition is surface that no pipeline runs."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "mags"

# Public names kept although no library code calls them, each for a reason.
ALLOWED = {
    # the reference oracle that the split-pipeline gradients are tested against
    "nn.loss_and_grad",
    # writes the IDX fixtures that the loader tests read back
    "data.save_idx",
}


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
