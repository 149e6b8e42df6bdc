"""Every public name in ``src/wavelab`` is reached from ``src/`` or ``scripts/``.

A name is reached when it appears as a word outside every definition of that
name: a call, an import, an attribute access or a reference in another
definition.  Names that only tests reach belong in ``tests/oracle.py``; the
few kept on purpose are listed in ``KEPT`` with their reason.
"""

import ast
import re
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted((ROOT / "src" / "wavelab").glob("*.py"))
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# paper content that a command is yet to expose
KEPT = {
    "gram_schmidt_module": "module Gram-Schmidt: a bank from N generators",
    "weighted_shift_inverse": "the inverse dilation F -> (F o shift^-1) / (m o pi_1)",
}


def public_definitions(tree):
    """(name, node) of module-level functions, classes, UPPER_CASE constants and class members."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, node) for t in targets if isinstance(t, ast.Name) and t.id.isupper())
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((n.name, n) for n in node.body if isinstance(n, ast.FunctionDef))


def test_every_public_name_is_reached_or_kept():
    uses = defaultdict(set)  # word -> (file, line) where it appears
    for path in SOURCES + SCRIPTS:
        for number, line in enumerate(path.read_text().splitlines(), start=1):
            for word in re.findall(r"\w+", line):
                uses[word].add((path, number))
    definitions = defaultdict(set)  # name -> (file, line) inside a definition of it
    for path in SOURCES:
        for name, node in public_definitions(ast.parse(path.read_text())):
            if not name.startswith("_"):
                first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
                definitions[name] |= {(path, n) for n in range(first, node.end_lineno + 1)}
    unreached = {name for name, inside in definitions.items() if uses[name] <= inside}
    assert unreached == set(KEPT)
