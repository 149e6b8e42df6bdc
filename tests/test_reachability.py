"""Every public name in ``src/wavelab`` is reached from ``src/`` or ``scripts/``,
and every public name in ``tests/oracle.py`` from ``tests/``.

The guard reads code, not text.  A name is reached when some node of the
syntax tree outside every definition of that name uses it:

- a ``Name`` (a call, a reference, a base class, a decorator),
- an ``Attribute`` (``module.name``, ``obj.method``),
- an import alias (``from .code_space import name``),
- a string constant that is exactly a module-level name, as in a dispatch
  table of builder names or ``__all__``.

Comments, docstrings and the literal text of messages (f-strings
included) are not uses, and the methods of a class must be used
themselves.  Names that only tests reach belong in ``tests/oracle.py``;
the few kept on purpose are listed in ``KEPT`` with their reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "wavelab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))
ORACLE = ROOT / "tests" / "oracle.py"
TESTS = sorted(p for p in (ROOT / "tests").glob("*.py") if p != ORACLE)

# paper content that a command is yet to expose
KEPT = {}


def public_definitions(tree):
    """(name, node, owner) of module-level functions, classes and UPPER_CASE
    constants (owner None) and of class members (owner the class name)."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node, None) for t in targets if isinstance(t, ast.Name) and t.id.isupper())
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node, None
            if isinstance(node, ast.ClassDef):
                yield from ((n.name, n, node.name) for n in node.body if isinstance(n, ast.FunctionDef))


def _lines(label, node):
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return {(label, n) for n in range(first, node.end_lineno + 1)}


def _docstrings_and_fstring_parts(tree):
    """ids of string constants that are bare expression statements or f-string text."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
            skip.add(id(node.value))
        elif isinstance(node, ast.JoinedStr):
            skip.update(id(v) for v in node.values if isinstance(v, ast.Constant))
    return skip


def uses(tree, module_names):
    """(name, line) of every use in the tree; strings count only as module-level names."""
    skip = _docstrings_and_fstring_parts(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rpartition(".")[2], node.lineno
        elif isinstance(node, ast.Constant) and id(node) not in skip:
            if isinstance(node.value, str) and node.value in module_names:
                yield node.value, node.lineno


def unreached(sources, scripts):
    """Public names of ``sources`` that no code in ``sources`` or ``scripts`` uses.

    Both are {label: text}.  A use counts only outside the lines of every
    definition of its name, so recursion and self-reference do not reach.
    """
    trees = {label: ast.parse(text) for label, text in {**sources, **scripts}.items()}
    definitions = defaultdict(set)  # name -> (label, line) inside a definition of it
    owners = defaultdict(set)  # name -> the classes that define it, None at module level
    for label in sources:
        for name, node, owner in public_definitions(trees[label]):
            if not name.startswith("_"):
                definitions[name] |= _lines(label, node)
                owners[name].add(owner)
    module_names = {name for name, classes in owners.items() if None in classes}
    used = defaultdict(set)  # name -> (label, line) of its uses
    for label, tree in trees.items():
        for name, line in uses(tree, module_names):
            used[name].add((label, line))
    return {name for name, inside in definitions.items() if not used[name] - inside}


def _texts(paths):
    return {str(p.relative_to(ROOT)): p.read_text() for p in paths}


def test_every_public_name_is_reached_or_kept():
    assert unreached(_texts(SOURCES), _texts(SCRIPTS)) == set(KEPT)


def test_every_oracle_name_is_reached_from_the_tests():
    assert unreached(_texts([ORACLE]), _texts(TESTS)) == set()


def test_comments_docstrings_and_messages_do_not_reach():
    library = (
        "def orphan():\n"
        "    return 1\n"
        "\n"
        "def called():\n"
        "    return 2\n"
        "\n"
        "def dispatched():\n"
        "    return 3\n"
        "\n"
        "class Holder:\n"
        "    def member(self):\n"
        "        return 4\n"
    )
    user = (
        '"""orphan"""\n'
        "# orphan() is mentioned only in this comment\n"
        "\n"
        "def run(x):\n"
        '    """Unlike orphan, this calls called."""\n'
        "    if x is None:\n"
        '        raise ValueError(f"orphan {x} is gone; see orphan")\n'
        '    table = {"member": "dispatched"}\n'
        "    return called(), table, Holder\n"
    )
    assert unreached({"library.py": library}, {"user.py": user}) == {"orphan", "member"}
    # the same names in code reach them
    reaching = user + "\nrun(orphan)\nHolder().member()\n"
    assert unreached({"library.py": library}, {"user.py": reaching}) == set()
