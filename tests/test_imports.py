"""Every imported name in the package, the tests and the demos is used."""

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FILES = sorted(
    path.relative_to(ROOT).as_posix()
    for folder in ("src/pmlp", "tests", "demos")
    for path in (ROOT / folder).glob("*.py")
)


def unused_imports(source):
    """Names an import binds that the module never reads.

    A name listed in ``__all__`` counts as read, since re-exporting it is
    the import's purpose.
    """
    tree = ast.parse(source)
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name] = node.lineno
    read = {
        node.id
        for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ) and isinstance(node.value, (ast.List, ast.Tuple)):
            read.update(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in bound.items() if name not in read)


def star_imports(source):
    """Line numbers of the module's ``from ... import *`` statements.

    ``unused_imports`` sees no name such a statement binds;
    ``test_only_the_package_root_star_imports`` keeps them to the one file
    that republishes its submodules.
    """
    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.names[0].name == "*"
    ]


def test_files_found():
    assert "src/pmlp/density.py" in FILES
    assert "tests/test_imports.py" in FILES
    assert any(name.startswith("demos/") for name in FILES)


@pytest.mark.parametrize("name", FILES)
def test_no_unused_imports(name):
    assert unused_imports((ROOT / name).read_text(encoding="utf-8")) == []


def test_scan_flags_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.zeros(1)\n"
    assert unused_imports(source) == [(1, "os"), (3, "b")]


def test_scan_skips_star_imports_and_a_computed_all():
    source = "import a\nfrom a import *\n__all__ = list(a.__all__)\n"
    assert unused_imports(source) == []
    assert star_imports(source) == [2]


def test_only_the_package_root_star_imports():
    # pmlp/__init__.py republishes its submodules' __all__ (PEP 8); any
    # other star import would hide its names from the unused-import scan.
    starred = [
        name for name in FILES if star_imports((ROOT / name).read_text(encoding="utf-8"))
    ]
    assert starred == ["src/pmlp/__init__.py"]
