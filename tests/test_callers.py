import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankread"

# definitions kept without a caller in the program, each for a test that
# needs it as a reference
NO_CALLER_NEEDED = {
    "tensor.fd_check": "the finite-difference reference every op's gradient is checked against",
}

# dataclass fields kept though the program never reads them back
NO_READER_NEEDED = {
    "retrieval.RetrievedPassage.doc_id": "written to the retrieved file for users",
    "retrieval.RetrievedPassage.ir_score": "written to the retrieved file for users",
}


def _sources():
    """The program: the package, its scripts and the benchmark."""
    return [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            *(ROOT / "perfbench").glob("*.py")]


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # perfbench/tracing.py names its targets as strings


def test_every_definition_has_a_caller():
    # code that only tests call is code nobody runs
    used = set()
    for path in _sources():
        used.update(_names_used(ast.parse(path.read_text())))
    uncalled = [f"{path.stem}.{name}"
                for path in sorted(PACKAGE.glob("*.py"))
                for name in _definitions(ast.parse(path.read_text()))
                if not (name.startswith("__") and name.endswith("__")) and name not in used]
    assert sorted(uncalled) == sorted(NO_CALLER_NEEDED)


def _dataclass_fields(tree):
    """The annotated fields of each module-level @dataclass, as Class.field."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.unparse(d) for d in node.decorator_list):
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}"


def _names_read(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            yield node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # getattr(self, key) and friends name fields as strings


def test_every_dataclass_field_is_read():
    # a field the program sets and never reads is a value computed for nobody
    read = set()
    for path in _sources():
        read.update(_names_read(ast.parse(path.read_text())))
    unread = [f"{path.stem}.{field}"
              for path in sorted(PACKAGE.glob("*.py"))
              for field in _dataclass_fields(ast.parse(path.read_text()))
              if field.split(".")[1] not in read]
    assert sorted(unread) == sorted(NO_READER_NEEDED)


def _unused_imports(tree):
    """Names a module imports and never reads."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items() if name not in read)


def test_no_unused_imports():
    # no linter ships with the project; this is the one lint rule it keeps,
    # over the package, its tests and its scripts
    paths = [*PACKAGE.glob("*.py"), *(ROOT / "tests").glob("*.py"),
             *(ROOT / "scripts").glob("*.py")]
    unused = [f"{path.relative_to(ROOT)}:{line}: {name}"
              for path in sorted(paths)
              for line, name in _unused_imports(ast.parse(path.read_text()))]
    assert unused == []
