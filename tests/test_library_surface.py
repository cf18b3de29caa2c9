"""Every public top-level def and class of the package has a reason to stay:
a reference from the package itself (outside its own definition), from a
benchmark workload (perfbench/workloads.py) or a script (scripts/), or an
entry in the README's Library list, which says why it stays. The files are
read with ast; nothing is imported."""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "liefields"


def _parse(path):
    return ast.parse(path.read_text(encoding="utf-8"))


def _references(tree, module=None):
    """(statement, refs) per top-level statement of tree, refs the (module,
    name) pairs it references: `alias.name` for a package module imported
    as alias, `from liefields.module import name`, and inside the package
    module `module` itself, a bare name."""
    aliases, imported = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level == 1 or node.module == "liefields"
                                                 or (node.module or "").startswith("liefields.")):
            source = (node.module or "").rpartition(".")[2]
            for alias in node.names:
                if source in ("", "liefields"):  # from . import algebra as A
                    aliases[alias.asname or alias.name] = alias.name
                else:  # from .fields import VectorField
                    imported.add((source, alias.name))
    out = []
    for stmt in tree.body:
        refs = set()
        for node in ast.walk(stmt):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id in aliases):
                refs.add((aliases[node.value.id], node.attr))
            elif module is not None and isinstance(node, ast.Name):
                refs.add((module, node.id))
        out.append((stmt, refs))
    return [(None, imported)] + out


def _library_list():
    """The `module.name` entries of the README's Library section."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = re.search(r"^## Library\n(.*?)(?=^## |\Z)", text, re.M | re.S)
    return set(re.findall(r"`(\w+)\.(\w+)`", section.group(1))) if section else set()


MODULES = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
PUBLIC = {(module, stmt.name): stmt for module, tree in MODULES.items() for stmt in tree.body
          if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) and not stmt.name.startswith("_")}


def test_every_public_definition_has_a_reason_to_stay():
    outside = set()
    for path in [ROOT / "perfbench" / "workloads.py", *sorted((ROOT / "scripts").glob("*.py"))]:
        for _, refs in _references(_parse(path)):
            outside |= refs
    inside = [item for module, tree in MODULES.items() for item in _references(tree, module)]
    reasons = outside | _library_list()
    unreached = [f"{module}.{name}" for (module, name), stmt in PUBLIC.items()
                 if (module, name) not in reasons
                 and not any((module, name) in refs for owner, refs in inside if owner is not stmt)]
    assert not unreached, ("no caller in src/, perfbench/workloads.py or scripts/, and not on "
                           f"the README's Library list: {', '.join(unreached)}")


def test_library_list_names_existing_definitions():
    stale = sorted(f"{module}.{name}" for module, name in _library_list() - set(PUBLIC))
    assert not stale, f"the README's Library list names what the package does not define: {stale}"
