"""README's library example runs as written, so a removed or re-signed public
name fails the suite instead of leaving stale docs; and every public name of
the package is used by the package, the acceptance gate or README, so test-only
code does not ship in it."""
import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
README = ROOT / "README.md"
PACKAGE = ROOT / "src" / "caliblab"


def test_library_example_runs(capsys):
    section = README.read_text().split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})
    first_variation, identity_err = map(float, capsys.readouterr().out.split())
    # the printed comments: critical, and the pointwise identity holds
    assert abs(first_variation) < 1e-8
    assert identity_err < 1e-8


def _public_definitions(tree):
    """The name of each public module-level function or class and of each
    public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name
            if isinstance(node, ast.ClassDef):
                yield from (item.name for item in node.body
                            if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"))


def _references(node, skip=frozenset()):
    """Names, attributes and imported names used under node, leaving out each
    definition's uses of its own name."""
    found = set()
    if isinstance(node, ast.Name):
        found.add(node.id)
    elif isinstance(node, ast.Attribute):
        found.add(node.attr)
    elif isinstance(node, ast.alias):
        found.add(node.name.split(".")[-1])
    own = skip | {node.name} if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else skip
    for child in ast.iter_child_nodes(node):
        found |= _references(child, own)
    return found - own


def test_every_public_name_is_used():
    # __init__.py only re-exports: an export is not a use
    modules = {path: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))
               if path.name != "__init__.py"}
    used = set().union(*map(_references, modules.values()))
    used |= _references(ast.parse((ROOT / "tests" / "test_acceptance.py").read_text()))
    used |= set(re.findall(r"\w+", README.read_text()))
    unused = [f"{path.stem}.{name}" for path, tree in modules.items()
              for name in _public_definitions(tree) if name not in used]
    assert not unused, f"public names that only tests use: {unused}"
