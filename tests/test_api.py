"""The names the benchmark in perfbench/ takes from homleib must exist.

The benchmark's modules are parsed, never imported or changed.  Every
homleib module it imports, every name it imports from one, and every
attribute it reads through such a name (``cli.main``,
``homleib.KERNEL_BACKEND``, ``structure.PdModuleMap.apply``) is resolved
against the package, so removing a name the benchmark needs fails here.
"""

import ast
import glob
import importlib
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH_FILES = sorted(glob.glob(os.path.join(ROOT, "perfbench", "*.py")))


def _is_homleib(name: str) -> bool:
    return name == "homleib" or name.startswith("homleib.")


def _import_module_arg(node) -> str | None:
    """The module of a literal ``importlib.import_module("homleib...")``."""
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Attribute)
        and node.func.attr == "import_module"
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
        and _is_homleib(node.args[0].value)
    ):
        return node.args[0].value
    return None


def _dotted(node, aliases: dict) -> str | None:
    """`node` as a dotted homleib name, if it is reached through one."""
    if isinstance(node, ast.Name):
        return aliases.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, aliases)
        return None if base is None else f"{base}.{node.attr}"
    return _import_module_arg(node)


def homleib_references(tree: ast.AST) -> list[tuple[str, int]]:
    """(dotted name, line) for everything the module takes from homleib."""
    aliases = {}  # local name -> the dotted homleib name it is bound to
    refs = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                if _is_homleib(a.name):
                    refs.append((a.name, node.lineno))
                    local = a.asname or a.name.split(".")[0]
                    aliases[local] = a.name if a.asname else local
        elif isinstance(node, ast.ImportFrom) and _is_homleib(node.module or ""):
            for a in node.names:
                refs.append((f"{node.module}.{a.name}", node.lineno))
                aliases[a.asname or a.name] = f"{node.module}.{a.name}"
        elif isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name):
            module = _import_module_arg(node.value)
            if module is not None:
                aliases[node.targets[0].id] = module
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            name = _dotted(node, aliases)
            if name is not None:
                refs.append((name, node.lineno))
        elif (module := _import_module_arg(node)) is not None:
            refs.append((module, node.lineno))
    return refs


def resolve(dotted: str):
    """Import the longest module prefix of `dotted`, then read the rest
    as attributes; raises ImportError or AttributeError when it is gone."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attr in parts[cut:]:
            obj = getattr(obj, attr)
        return obj
    raise ModuleNotFoundError(dotted)


def test_benchmark_names_resolve():
    assert BENCH_FILES, "perfbench/ not found"
    checked, missing = 0, []
    for path in BENCH_FILES:
        with open(path, encoding="utf-8") as fh:
            tree = ast.parse(fh.read(), path)
        for name, line in homleib_references(tree):
            checked += 1
            try:
                resolve(name)
            except (ImportError, AttributeError) as exc:
                missing.append(f"{os.path.basename(path)}:{line}: {name} ({exc})")
    assert checked, "no homleib names found in perfbench/"
    assert not missing, "names the benchmark uses are gone:\n" + "\n".join(missing)


def test_a_removed_name_is_reported():
    tree = ast.parse(
        "import importlib\n"
        "from homleib import cli, virasoro\n"
        "from homleib.structure import apply_map\n"
        "cli.no_such_command\n"
        "importlib.import_module('homleib.poly').MU\n"
    )
    refs = dict(homleib_references(tree))
    assert set(refs) == {
        "homleib.cli",
        "homleib.virasoro",
        "homleib.structure.apply_map",
        "homleib.cli.no_such_command",
        "homleib.poly",
        "homleib.poly.MU",
    }
    gone = set()
    for name in refs:
        try:
            resolve(name)
        except (ImportError, AttributeError):
            gone.add(name)
    assert gone == {"homleib.structure.apply_map", "homleib.cli.no_such_command", "homleib.poly.MU"}
