"""The runtime stays stdlib-only, which is what lets pyproject.toml declare
`dependencies = []`: every import in the package is relative or names a
standard-library module."""

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "hyplp"


def test_every_runtime_import_is_relative_or_stdlib():
    files = sorted(PACKAGE.glob("*.py"))
    assert len(files) >= 8
    outside = []
    for path in files:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            outside += [(path.name, name) for name in names
                        if name.split(".")[0] not in sys.stdlib_module_names]
    assert not outside
