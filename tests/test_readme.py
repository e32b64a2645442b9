"""The README's Python examples, run as written.

Each ```python block runs in one shared namespace, in order.  A comment
line right after a statement is that statement's documented result: the
statement must be an expression, and the comment, up to any " — "
remark, must equal the repr of its value.  Later comment lines of the
same run, and comments after a blank line, are prose.
"""

import ast
import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def python_blocks(text):
    return re.findall(r"^```python\n(.*?)^```", text, flags=re.S | re.M)


def run_block(block, namespace):
    """Run one block; return the (expected, got) pairs of its result comments."""
    checks = []
    pending = []

    def flush():
        exec(compile("\n".join(pending), str(README), "exec"), namespace)
        pending.clear()

    for line in block.splitlines():
        stripped = line.strip()
        if not stripped:
            flush()
        elif not stripped.startswith("#"):
            pending.append(line)
        elif pending:
            body = ast.parse("\n".join(pending)).body
            last = body.pop()
            assert isinstance(last, ast.Expr), f"result comment after a statement: {line!r}"
            exec(compile(ast.Module(body, []), str(README), "exec"), namespace)
            got = repr(eval(compile(ast.Expression(last.value), str(README), "eval"), namespace))
            checks.append((stripped[1:].strip().split(" — ")[0], got))
            pending.clear()
    flush()
    return checks


def test_readme_examples_print_what_they_show():
    blocks = python_blocks(README.read_text(encoding="utf-8"))
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        checks = run_block(block, namespace)
        assert checks
        for expected, got in checks:
            assert got == expected
