"""README.md names only what exists: every backticked snake_case identifier
is a name of ``src/mpde``, a shipped problem or test module, or notation of
the paper."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# an identifier with at least one underscore, such as degree_envelope or D_t
SNAKE = re.compile(r"\b[A-Za-z][A-Za-z0-9]*(?:_[A-Za-z0-9]+)+\b")
# the paper's notation, which no code spells: derivatives, slopes, data,
# steps, and the multi-index entries of coeffs.csv's header
NOTATION = {"D_t", "D_z", "k_1", "k_2", "phi_j", "u_0", "alpha_1", "alpha_N"}


def source_names() -> set:
    """The names in the AST of ``src/mpde``: defined functions and classes,
    variables, attributes, arguments, keywords, import aliases, and the
    words of every string literal that is not a docstring."""
    names = set()
    for path in (ROOT / "src" / "mpde").glob("*.py"):
        tree = ast.parse(path.read_text())
        docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                      if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                           ast.AsyncFunctionDef))
                      and node.body and isinstance(node.body[0], ast.Expr)
                      and isinstance(node.body[0].value, ast.Constant)}
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names.add(node.name)
            elif isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, (ast.arg, ast.keyword)):
                names.add(node.arg)
            elif isinstance(node, ast.alias):
                names.update(filter(None, (node.name, node.asname)))
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                  and id(node) not in docstrings):
                names.update(SNAKE.findall(node.value))
    return names


def test_readme_names_only_what_exists():
    spans = re.findall(r"`([^`\n]+)`", (ROOT / "README.md").read_text())
    named = {word for span in spans for word in SNAKE.findall(span)}
    stems = {path.stem for pattern in ("problems/*.json", "tests/*.py")
             for path in ROOT.glob(pattern)}
    assert named - source_names() - stems - NOTATION == set()
