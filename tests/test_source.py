"""Rules on the package's source that no behaviour test can see.

``python -O`` strips every ``assert`` statement, so an invariant the
package checks with one silently stops being checked under it.  The
package raises instead.
"""

import ast
from pathlib import Path

import diagram_groups


def test_no_assert_statements_in_the_package():
    root = Path(diagram_groups.__file__).parent
    found = [
        f"{path.relative_to(root)}:{node.lineno}"
        for path in sorted(root.rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []
