"""Every public name and every private function in src/eegsweep has a
caller outside the tests, and every dataclass field has a reader.

The first scan parses each module with `ast` and lists its public
module-level functions, classes and constants, and the public methods
and properties of its classes; the second lists its private module-level
functions and the private methods of its classes (dunders aside). A name
passes when it appears as a word somewhere in src/eegsweep outside its
own definition, in demos/ or in perfbench/. It matches names, not
parameters: an unused keyword argument of a used function is not caught
here. The third scan lists the fields of every dataclass in src/eegsweep
and looks for a read of each name, as an attribute or through getattr
with a constant, anywhere in the project. The fourth scan looks for
`Recording(` calls outside the modules that load and generate
recordings.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "eegsweep"


def definitions(path):
    """(name, first line, last line, is a function) of each module-level
    function, class and constant in a file, and of each method of its
    classes."""
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
            out += [(name, n.lineno, n.end_lineno,
                     isinstance(n, ast.FunctionDef)) for name in names]
    return out


def uncalled(wanted):
    """`module: name` of each definition that `wanted(name, is a
    function)` picks and that no word outside its definition, in
    src/eegsweep, demos/ or perfbench/, names."""
    modules = sorted(SRC.glob("*.py"))
    callers = modules + sorted((ROOT / "demos").glob("*.py")) \
        + sorted((ROOT / "perfbench").glob("*.py"))
    texts = {path: path.read_text() for path in callers}
    unused = []
    for path in modules:
        lines = texts[path].splitlines()
        for name, first, last, function in definitions(path):
            if not wanted(name, function):
                continue
            word = re.compile(r"\b%s\b" % re.escape(name))
            outside = "\n".join(lines[:first - 1] + lines[last:])
            if not any(word.search(outside if other == path else text)
                       for other, text in texts.items()):
                unused.append("%s: %s" % (path.name, name))
    return unused


def test_every_public_name_has_a_caller_outside_tests():
    assert uncalled(lambda name, function: not name.startswith("_")) == []


def test_every_private_function_has_a_caller_outside_tests():
    assert uncalled(lambda name, function: function
                    and name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__"))
                    ) == []


def attribute_reads(path):
    """Names read as `x.name` or through `getattr(x, "name")` in a file."""
    reads = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and node.func.id == "getattr" and len(node.args) >= 2
              and isinstance(node.args[1], ast.Constant)):
            reads.add(node.args[1].value)
    return reads


def test_every_dataclass_field_is_read():
    """A field that no code reads is state nobody needs: every dataclass
    field in src/eegsweep must be read as an attribute somewhere in src/,
    demos/, perfbench/ or tests/."""
    reads = set()
    for folder in ("src", "demos", "perfbench", "tests"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            reads |= attribute_reads(path)
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    ast.unparse(d).startswith("dataclass")
                    for d in node.decorator_list):
                unread += ["%s.%s" % (node.name, n.target.id)
                           for n in node.body
                           if isinstance(n, ast.AnnAssign)
                           and n.target.id not in reads]
    assert unread == []


def test_only_loading_and_synthesis_build_a_recording_field_by_field():
    """Every other module derives its recordings from one it was given,
    through `with_samples`, so no stage can drop or mix up metadata."""
    calls = []
    for path in sorted(SRC.glob("*.py")):
        if path.name in ("data_model.py", "synth.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and "Recording" in (
                    getattr(node.func, "id", None),
                    getattr(node.func, "attr", None)):
                calls.append("%s:%d" % (path.name, node.lineno))
    assert calls == []
