"""README's Library example runs as written, and shows what it returns."""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"

# the example's expression lines that show a value in their comment, in order
SHOWN = (
    "t",
    "t.n, t.moduli",
    "g.adjacent(0, 36)",
    "g.bfs(0)[30]",
    "len(g.levels_from_zero)",
    "diameter(t, g)",
    "walk.levels",
    "walk.length, walk.endpoints",
    "verify_walk(walk, g)",
)


def _shown(comment: str) -> str:
    """The value a comment shows: its text up to the first ',' or ':'
    outside brackets."""
    depth = 0
    for i, ch in enumerate(comment):
        depth += (ch in "([") - (ch in ")]")
        if depth == 0 and ch in ",:":
            return comment[:i]
    return comment


def test_the_library_example_returns_what_its_comments_show():
    library = README.read_text().split("\n## Library\n", 1)[1]
    [block] = re.findall(r"```python\n(.*?)```", library.split("\n## ", 1)[0], re.S)
    namespace: dict = {}
    shown = []
    for line in block.splitlines():
        code, _, comment = line.partition("  # ")
        if not code.strip():
            continue
        statement = ast.parse(code).body[0]
        if isinstance(statement, ast.Expr):
            value = eval(code, namespace)
            if code.strip() in SHOWN:
                shown.append((code.strip(), repr(value), _shown(comment.strip())))
        else:
            exec(code, namespace)
    assert [code for code, _, _ in shown] == list(SHOWN)
    for code, value, text in shown:
        assert value == text, code
