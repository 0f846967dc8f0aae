"""Every public name in src/eegsweep has a caller outside the tests.

The scan parses each module with `ast` and lists its public module-level
functions, classes and constants, and the public methods and properties
of its classes. A name passes when it appears as a word somewhere in
src/eegsweep outside its own definition, in demos/ or in perfbench/.
It matches names, not parameters: an unused keyword argument of a used
function is not caught here.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eegsweep"


def public_definitions(path):
    """(name, first line, last line) of each public definition in a file."""
    out = []
    for node in ast.parse(path.read_text()).body:
        members = [node]
        if isinstance(node, ast.ClassDef):
            members += [n for n in node.body if isinstance(n, ast.FunctionDef)]
        for n in members:
            if isinstance(n, (ast.FunctionDef, ast.ClassDef)):
                names = [n.name]
            elif isinstance(n, ast.Assign):
                names = [t.id for t in n.targets if isinstance(t, ast.Name)]
            elif isinstance(n, ast.AnnAssign) and isinstance(n.target,
                                                             ast.Name):
                names = [n.target.id]
            else:
                names = []
            out += [(name, n.lineno, n.end_lineno) for name in names
                    if not name.startswith("_")]
    return out


def test_every_public_name_has_a_caller_outside_tests():
    modules = sorted(SRC.glob("*.py"))
    callers = modules + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text() for path in callers}
    unused = []
    for path in modules:
        lines = texts[path].splitlines()
        for name, first, last in public_definitions(path):
            word = re.compile(r"\b%s\b" % re.escape(name))
            outside = "\n".join(lines[:first - 1] + lines[last:])
            if not any(word.search(outside if other == path else text)
                       for other, text in texts.items()):
                unused.append("%s: %s" % (path.name, name))
    assert unused == []
