import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import depthstream

MODULES = [m.name for m in pkgutil.iter_modules(depthstream.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"depthstream.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []


def imported_names(tree: ast.Module) -> dict[str, int]:
    """Every name an import statement binds, with its line number."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names[alias.asname or alias.name] = node.lineno
    return names


# the package __init__ only re-exports, so it is not in MODULES
@pytest.mark.parametrize("name", MODULES)
def test_no_unused_imports(name):
    module = importlib.import_module(f"depthstream.{name}")
    tree = ast.parse(Path(module.__file__).read_text())
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    used |= set(getattr(module, "__all__", ()))
    unused = {n: line for n, line in imported_names(tree).items()
              if n not in used}
    assert unused == {}


def test_no_module_rebinds_a_global():
    # precision comes from the operands and the active tape is per thread,
    # so no module keeps process-wide state that a statement rebinds
    statements = []
    for path in sorted(Path(depthstream.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        statements += [f"{path.name}:{n.lineno}" for n in ast.walk(tree)
                       if isinstance(n, ast.Global)]
    assert statements == []


def settable_values(tree: ast.Module) -> int:
    """Dataclass fields, defaulted parameters of public functions and
    methods, and add_argument calls (CLI flags)."""
    count = 0
    for node in ast.walk(tree):
        if isinstance(node, ast.ClassDef) and any(
                getattr(d.func if isinstance(d, ast.Call) else d, "id",
                        None) == "dataclass"
                for d in node.decorator_list):
            count += sum(isinstance(s, ast.AnnAssign) for s in node.body)
        elif (isinstance(node, ast.FunctionDef)
              and not node.name.startswith("_")):
            count += len(node.args.defaults) + sum(
                d is not None for d in node.args.kw_defaults)
        elif (isinstance(node, ast.Call)
              and isinstance(node.func, ast.Attribute)
              and node.func.attr == "add_argument"):
            count += 1
    return count


def test_settable_values():
    """Every value a caller can set, pinned. A change that adds a setting
    updates this number and says in CHANGES.md why a constant would not
    do; one that removes settings lowers it."""
    root = Path(depthstream.__file__).parent
    assert sum(settable_values(ast.parse(path.read_text()))
               for path in root.glob("*.py")) == 135
