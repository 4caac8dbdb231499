"""README's library example runs and gives the rows its comment shows,
the names and tests README cites exist, and README names every option
of the CLI."""

import argparse
import ast
import re
from importlib import import_module
from pathlib import Path

import morphinject
from morphinject.cli import build_parser

ROOT = Path(__file__).parents[1]
README = ROOT / "README.md"


def test_readme_library_example_gives_the_rows_in_its_comment():
    (block,) = re.findall(r"```python\n(.*?)```", README.read_text("utf-8"), re.S)
    namespace = {}
    exec(block, namespace)
    shown = " ".join(ln[1:] for ln in block.splitlines() if ln.startswith("#"))
    assert namespace["rows"] == ast.literal_eval(shown)


def _package():
    """Each module of the package by its name."""
    return {path.stem: import_module(f"morphinject.{path.stem}")
            for path in Path(morphinject.__path__[0]).glob("*.py") if path.stem != "__init__"}


def test_readme_names_and_cited_tests_exist():
    text = README.read_text("utf-8")
    modules = _package()
    # `module.name`: the name is defined by that module of the package
    dotted = {(m, n) for m, n in re.findall(r"`(\w+)\.(\w+)`", text) if m in modules}
    assert len(dotted) >= 5
    for module, name in sorted(dotted):
        assert hasattr(modules[module], name), f"README names {module}.{name}"
    # a bare `snake_case` or `snake_case(args)` name is a module of the package,
    # a name one defines or an attribute of a class one defines
    defined = set(modules)
    for module in modules.values():
        for name, value in vars(module).items():
            defined.add(name)
            if isinstance(value, type) and value.__module__ == module.__name__:
                defined.update(dir(value))
    bare = set(re.findall(r"`([a-z][a-z0-9]*(?:_[a-z0-9]+)+)(?:\([^`]*\))?`", text))
    missing = sorted(n for n in bare if not n.startswith("test_") and n not in defined)
    assert not missing, f"README names {missing}"
    # the contract pins: tests/FILE.py::test_name, and the bare `test_...`
    # names that follow one, which are in the same file
    cited, file = [], None
    for path, name, bare_name in re.findall(
            r"(tests/\w+\.py)::(test_\w+)|`(test_\w+)`", text):
        file = path or file
        assert file, f"`{bare_name}` follows no tests/FILE.py::test_name"
        cited.append((file, name or bare_name))
    assert len(cited) >= 8
    for file, name in cited:
        tree = ast.parse((ROOT / file).read_text("utf-8"))
        tests = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
        assert name in tests, f"README cites {file}::{name}"


def test_readme_names_every_option_of_every_subcommand():
    text = README.read_text("utf-8")
    sub = next(a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {(command, option) for command, parser in sub.choices.items()
               for action in parser._actions for option in action.option_strings
               if option.startswith("--") and option != "--help"}
    assert len(options) >= 30
    missing = sorted((command, option) for command, option in options
                     if not re.search(re.escape(option) + r"(?![\w-])", text))
    assert not missing, f"README does not name {missing}"
