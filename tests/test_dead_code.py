"""A dead-code gate over ``src/crashmle``, read with the standard ``ast``.

Every module-level import must be read in its module or named in the
module's ``__all__`` (a name re-exported on purpose is read by a tuple
that holds it, as ``mixed.REEXPORTED`` does), and every private
module-level function, class and assigned name must be referenced
somewhere in the package outside its own definition.  A private
module-level function's default is dead when every package call of the
function passes that parameter: the default has no caller.  No module
reads another module's private names, and a family's modules count as
one module: the logit family's (``mnl``, ``mixed``) share theirs, and
every other module is a family of its own.
"""

import ast
from pathlib import Path

import pytest

pytestmark = pytest.mark.gate

SRC = Path(__file__).resolve().parents[1] / "src" / "crashmle"
TREES = {path.stem: ast.parse(path.read_text(encoding="utf-8"), str(path))
         for path in sorted(SRC.glob("*.py"))}


def bound_imports(tree):
    """The names the module's top-level imports bind, ``__future__`` aside."""
    for node in tree.body:
        if isinstance(node, ast.Import):
            yield from (a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            yield from (a.asname or a.name for a in node.names)


def exported(tree):
    """The strings of the module's ``__all__``."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return set(ast.literal_eval(node.value))
    return set()


def references(tree, skip=None, attributes=True):
    """The names ``tree`` reads outside the subtree ``skip``: bare names
    and, with ``attributes``, attribute names."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield node.id
        elif attributes and isinstance(node, ast.Attribute):
            yield node.attr


@pytest.mark.parametrize("module", list(TREES))
def test_every_import_is_used_or_exported(module):
    tree = TREES[module]
    used = set(references(tree, attributes=False)) | exported(tree)
    assert [name for name in bound_imports(tree) if name not in used] == []


def private_names(node):
    """The private names a top-level statement defines: a function's or
    a class's, or an assignment's targets."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        names = [node.name]
    elif isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [name for name in names if name.startswith("_") and not name.startswith("__")]


def unreferenced(module, kinds):
    """The private names that top-level statements of ``kinds`` define in
    ``module`` and that no module reads outside their definition."""
    return [name for node in TREES[module].body if isinstance(node, kinds)
            for name in private_names(node)
            if not any(name in references(tree, node if other == module else None)
                       for other, tree in TREES.items())]


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_function_is_referenced(module):
    assert unreferenced(module, ast.FunctionDef) == []


@pytest.mark.parametrize("module", list(TREES))
def test_every_private_constant_and_class_is_referenced(module):
    assert unreferenced(module, (ast.ClassDef, ast.Assign, ast.AnnAssign)) == []


def calls(name):
    """Every call of ``name`` in the package, bare or as an attribute, or
    None when the name is also read other than as the callee of a call,
    or a call passes ``*args`` or ``**kwargs``: its calls are then not
    all known."""
    reads = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
             and node.id == name or isinstance(node, ast.Attribute) and node.attr == name]
    found = [node for tree in TREES.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call) and any(node.func is read for read in reads)]
    starred = any(isinstance(a, ast.Starred) for c in found for a in c.args) or any(
        k.arg is None for c in found for k in c.keywords)
    return None if len(found) != len(reads) or starred else found


def dead_defaults(module):
    """``function.parameter`` for each defaulted parameter of a private
    module-level function of ``module`` that every package call passes."""
    dead = []
    for node in TREES[module].body:
        if not (isinstance(node, ast.FunctionDef) and private_names(node)):
            continue
        found = calls(node.name)
        if not found:
            continue
        positional = node.args.posonlyargs + node.args.args
        defaulted = [(i, a.arg) for i, a in enumerate(positional)
                     if i >= len(positional) - len(node.args.defaults)]
        defaulted += [(None, a.arg) for a, d in zip(node.args.kwonlyargs,
                                                     node.args.kw_defaults) if d is not None]
        dead += [f"{node.name}.{arg}" for i, arg in defaulted
                 if all(i is not None and i < len(c.args)
                        or arg in {k.arg for k in c.keywords} for c in found)]
    return dead


@pytest.mark.parametrize("module", list(TREES))
def test_no_private_function_has_a_default_every_call_passes(module):
    assert dead_defaults(module) == []


#: the modules that share their private names; every other module is its own family
FAMILY_OF = {"mnl": "logit", "mixed": "logit"}


def foreign_private_reads(module):
    """``owner._name`` for each private name of another family's module
    that ``module`` reads: imported from it by name, or read as an
    attribute of the module object an import binds."""
    tree = TREES[module]
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level == 1]
    bound = {a.asname or a.name: a.name
             for node in imports if node.module is None for a in node.names}
    reads = [(node.module, a.name) for node in imports if node.module for a in node.names]
    reads += [(bound[node.value.id], node.attr) for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
              and node.value.id in bound]
    return sorted({f"{owner}.{name}" for owner, name in reads
                   if FAMILY_OF.get(owner, owner) != FAMILY_OF.get(module, module)
                   and name.startswith("_") and not name.startswith("__")})


@pytest.mark.parametrize("module", list(TREES))
def test_no_module_reads_another_familys_private_names(module):
    assert foreign_private_reads(module) == []
