import ast
from dataclasses import fields
from pathlib import Path

from rankread import retrieval
from rankread.config import Config

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rankread"

# definitions kept without a caller in the program, each for a test that
# needs it as a reference
NO_CALLER_NEEDED = {
    "tensor.fd_check": "the finite-difference reference every op's gradient is checked against",
}

# definitions whose only callers are in perfbench/, each with the benchmark
# line that pins it; they can go once the benchmark stops naming them
BENCHMARK_ONLY = {
    "config.model_config":
        ("perfbench/workloads.py", "RankReadModel(self.cfg.model_config(), seed=self.seed)"),
    "evaluation.rank_passages":
        ("perfbench/workloads.py", "evaluation.rank_passages(model, table, q_tokens, rs.passages)"),
    "model.read": ("perfbench/tracing.py", '(model.RankReadModel, "read", "model.read", None, None)'),
    "trainer.example_losses":
        ("perfbench/tracing.py", '(trainer.Trainer, "example_losses", "trainer.example_losses",'),
}

# Config's class attributes that alias retrieval's constants, not fields,
# each with its constant and the benchmark line that reads it from a Config;
# they can go once the benchmark stops reading them
BENCHMARK_ALIASES = {
    "retrieve_n": ("RETRIEVE_N", "n = self.cfg.retrieve_n if train else self.w.test_passages"),
    "top_a": ("TOP_A", "top_a=self.cfg.top_a, top_s=self.cfg.top_s,"),
    "top_s": ("TOP_S", "top_a=self.cfg.top_a, top_s=self.cfg.top_s,"),
    "bm25_k1": ("BM25_K1", "train=train, k1=self.cfg.bm25_k1, b=self.cfg.bm25_b)"),
    "bm25_b": ("BM25_B", "train=train, k1=self.cfg.bm25_k1, b=self.cfg.bm25_b)"),
}

# dataclass fields kept though the program never reads them back
NO_READER_NEEDED = {
    "retrieval.RetrievedPassage.doc_id": "written to the retrieved file for users",
    "retrieval.RetrievedPassage.ir_score": "written to the retrieved file for users",
}


def _program():
    """The package and its scripts."""
    return [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py")]


def _sources():
    """The program and the benchmark."""
    return [*_program(), *(ROOT / "perfbench").glob("*.py")]


def _parse(paths):
    return [ast.parse(path.read_text()) for path in paths]


def _package():
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _definitions(tree):
    """Module-level functions and classes, and the methods of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield item.name


def _dunder(name):
    return name.startswith("__") and name.endswith("__")


def _assigned(tree):
    """The names module-level assignments bind, dunders aside."""
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for name in (n for target in targets for n in ast.walk(target)):
                if isinstance(name, ast.Name) and not _dunder(name.id):
                    yield name.id


def _names_used(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            yield node.id  # the name an assignment binds is not a use of it
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value  # perfbench/tracing.py names its targets as strings


def _uncalled(modules, sources):
    """The definitions of modules ({stem: tree}), as stem.name, whose name no
    tree in sources uses."""
    used = {name for tree in sources for name in _names_used(tree)}
    return sorted(f"{stem}.{name}" for stem, tree in modules.items()
                  for name in _definitions(tree)
                  if not _dunder(name) and name not in used)


def test_every_definition_has_a_caller():
    # code that only tests call is code nobody runs
    assert _uncalled(_package(), _parse(_sources())) == sorted(NO_CALLER_NEEDED)


def test_code_only_the_benchmark_calls_is_named():
    # each goes with the benchmark line that pins it
    package = _package()
    only_benchmark = (set(_uncalled(package, _parse(_program())))
                      - set(_uncalled(package, _parse(_sources()))))
    assert sorted(only_benchmark) == sorted(BENCHMARK_ONLY)
    for path, line in BENCHMARK_ONLY.values():
        assert line in (ROOT / path).read_text()


def test_every_module_level_name_is_read():
    # a table or constant that only tests read is bookkeeping nobody runs
    used = {name for tree in _parse(_sources()) for name in _names_used(tree)}
    assert [f"{stem}.{name}" for stem, tree in _package().items()
            for name in _assigned(tree) if name not in used] == []


def test_config_aliases_only_the_benchmark_reads_are_named():
    config_class = next(node for node in _package()["config"].body
                        if isinstance(node, ast.ClassDef) and node.name == "Config")
    aliases = [target.id for node in config_class.body if isinstance(node, ast.Assign)
               for target in node.targets]
    assert sorted(aliases) == sorted(BENCHMARK_ALIASES)
    workloads = (ROOT / "perfbench" / "workloads.py").read_text()
    for name, (constant, line) in BENCHMARK_ALIASES.items():
        assert getattr(Config, name) == getattr(retrieval, constant)
        assert name not in {field.name for field in fields(Config)}
        assert f"self.cfg.{name}" in line and line in workloads


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
