"""Dead code, the number format's owner, the one parameter type and
too-new regex syntax in src/homleib.

Found from the syntax tree alone: every import is used in the module
that makes it (package ``__init__`` modules re-export and are exempt),
and every private module-level function is referred to somewhere in the
package besides its own definition.  Every other module function and
every method that is neither a dunder nor inherited from a base class
is referred to in the package, its tests or its benchmark.

Found from the syntax tree too: only poly.py knows how a polynomial
stores its coefficients (integer numerators `_terms` over one
denominator `_den`, wrapped by `_own`).

Found from the syntax tree too: no module keeps an ambient evaluation
scope (each check, construction and coboundary builds one evaluator per
table and parameter and evaluates it as cells).

Found from the source of `structure._evaluator`: it has one term loop,
its batched one, which is the only place that reads a relabelled table
entry; applying it to one tuple is a batch of one.

Found from the syntax tree too: cohomology.py compiles a substitution
only in `_arities`, which builds each arity's parameters with the
substitutions d's frame reads, and structure.py only in
`Parameters.compiled` and, for parameters built per call, `_evaluator`.

Found from the syntax tree too: no module evaluates a table as a dense
grid (every check and the complex read nonzero cells only), and
definitions.py and cli.py never build a cochain past its checks
(`cohomology._cochain`).

Found from the syntax tree too: no module calls the builtin `id`, so
nothing is kept per argument object.

Found from the syntax tree too: no module keeps a function cache
(`functools.cache` or `lru_cache`) between calls, except the argument
parser `cli._parser`; state lives in objects a caller builds and holds.
Module constants built at import are allowed, such as the evaluation
parameters `structure.AT_*` and `cohomology._ARITIES` with the
substitutions compiled with them, whose stores grow only by one image
per monomial met; caches keyed by call arguments are not.

Found from the source text: no module defines, imports or mentions
`LinearForm` or `to_poly`, as evaluation parameters are polynomials.
Found from the syntax tree too: `structure._evaluator` and `_table_at`
take a `structure.Parameters` only and run no `isinstance` test on it.

Found from the compiled patterns: no module-level pattern uses a
possessive quantifier or an atomic group, which Python 3.11 added and
the package's oldest supported Python (3.10) rejects.
"""

import ast
import importlib
import pathlib
import pkgutil
import re

import homleib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "homleib"


def _trees() -> dict:
    """Module path under src/homleib -> its syntax tree."""
    return {
        path.relative_to(SRC).as_posix(): ast.parse(path.read_text(encoding="utf-8"))
        for path in sorted(SRC.rglob("*.py"))
    }


def _references(tree) -> set:
    """The identifiers a module reads: plain names and attribute names."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _imported(tree):
    """(line, bound name) for each name a top-level or nested import binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield node.lineno, alias.asname or alias.name


def test_every_import_is_used():
    unused = [
        f"{name}:{line} {bound}"
        for name, tree in _trees().items()
        if not name.endswith("__init__.py")
        for line, bound in _imported(tree)
        if bound not in _references(tree)
    ]
    assert not unused, unused


def test_every_private_function_is_referred_to():
    trees = _trees()
    referred = set().union(*(_references(tree) for tree in trees.values()))
    unreferred = [
        f"{name}:{node.lineno} {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
        and node.name not in referred
    ]
    assert not unreferred, unreferred


def _overrides(module: str, cls: str) -> set:
    """The names a class of the package inherits from its bases, which
    call them (argparse calls its parser's `_print_message`)."""
    bases = getattr(importlib.import_module(module), cls).__mro__[1:]
    return set().union(*(vars(base) for base in bases))


def test_every_function_and_method_is_referred_to():
    # public module functions and non-dunder methods too, referred to in
    # the package, its tests or its benchmark
    root = SRC.parent.parent
    referred = set().union(*(
        _references(ast.parse(path.read_text(encoding="utf-8")))
        for folder in (SRC, root / "tests", root / "perfbench")
        for path in folder.rglob("*.py")
    ))
    defined = []
    for name, tree in _trees().items():
        module = "homleib." + name[:-len(".py")].replace("/", ".").removesuffix(".__init__")
        for top in tree.body:
            if isinstance(top, ast.ClassDef):
                inherited = _overrides(module, top.name)
                defined += [(name, node) for node in top.body if getattr(node, "name", None) not in inherited]
            else:
                defined.append((name, top))
    unreferred = [
        f"{name}:{node.lineno} {node.name}"
        for name, node in defined
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not node.name.startswith("__")
        and node.name not in referred
    ]
    assert not unreferred, unreferred


def test_only_poly_knows_the_number_format():
    private = {"_terms", "_den", "_own"}
    readers = {
        name: sorted(_references(tree) & private)
        for name, tree in _trees().items()
        if name != "poly.py"
    }
    assert not any(readers.values()), readers


def test_no_module_opens_an_evaluation_scope():
    scope = {"ContextVar", "_SCOPE", "_evaluation_scope", "_table_evaluator", "_products"}
    named = {}
    for name, tree in _trees().items():
        imported = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) for alias in node.names}
        defined = {node.name for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
        named[name] = sorted(scope & (imported | defined | _references(tree)))
    assert not any(named.values()), named


def test_the_evaluator_has_one_term_loop():
    tree = _trees()["structure.py"]
    (evaluator,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_evaluator"]
    source = ast.get_source_segment((SRC / "structure.py").read_text(encoding="utf-8"), evaluator)
    assert source.count("relabelled.get(") == 1


def _compiling(tree) -> set:
    """The top-level functions and methods of a module that name
    `substitution`, as name or class.method."""
    def names(node, prefix=""):
        if isinstance(node, ast.ClassDef):
            return {where for sub in node.body for where in names(sub, node.name + ".")}
        named = any(
            isinstance(sub, ast.Name) and sub.id == "substitution"
            or isinstance(sub, ast.Attribute) and sub.attr == "substitution"
            for sub in ast.walk(node)
        )
        return {prefix + getattr(node, "name", type(node).__name__)} if named else set()

    return {where for top in tree.body for where in names(top)}


def test_substitutions_are_compiled_only_with_the_parameters():
    # the substitutions d and the checks apply are compiled once, at
    # import, with the parameters they belong to; one compiled anywhere
    # else would be compiled per call.  An evaluator at parameters built
    # for one call compiles its own relabel, for that call only.
    trees = _trees()
    assert _compiling(trees["cohomology.py"]) == {"_arities"}
    assert _compiling(trees["structure.py"]) == {"Parameters.compiled", "_evaluator"}


def test_cohomology_makes_no_dense_grid():
    # every module, not only cohomology.py: the complex, its view and the
    # frame read cells, and so does every check, so a zero cell never
    # reaches the frame or a residual; no evaluator defines, sets or is
    # asked for a dense `grid`
    found = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "grid"
        or isinstance(node, ast.FunctionDef) and node.name == "grid"
    ]
    assert not found, found


def test_only_the_engine_builds_unchecked_cochains():
    # `cohomology._cochain` skips the checks of `Cochain`; cochains read
    # from a definition file or the command line go through them
    readers = {
        name: sorted(_references(tree) & {"_cochain"})
        for name, tree in _trees().items()
        if name in ("definitions.py", "cli.py")
    }
    assert readers == {"definitions.py": [], "cli.py": []}


def test_no_module_calls_id():
    # an object's id is reused once the object is dropped, so a memo
    # keyed by it must hold its objects; nothing in the package keys by it
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "id"
    ]
    assert not calls, calls


def test_no_module_keeps_a_cache_between_calls():
    caches = {"cache", "lru_cache"}
    found = []
    for name, tree in _trees().items():
        allowed = {
            id(sub)
            for node in tree.body
            if isinstance(node, ast.FunctionDef) and (name, node.name) == ("cli.py", "_parser")
            for decorator in node.decorator_list
            for sub in ast.walk(decorator)
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                if caches & {alias.name for alias in node.names}:
                    found.append(f"{name}:{node.lineno}")
            elif (
                isinstance(node, ast.Attribute) and node.attr in caches
                and isinstance(node.value, ast.Name) and node.value.id == "functools" and id(node) not in allowed
            ):
                found.append(f"{name}:{node.lineno}")
    assert not found, found


def test_parameters_are_polynomials():
    named = [
        f"{path.relative_to(SRC).as_posix()} {word}"
        for path in sorted(SRC.rglob("*.py"))
        for word in ("LinearForm", "to_poly")
        if word in path.read_text(encoding="utf-8")
    ]
    assert not named, named
    tree = _trees()["structure.py"]
    tests = {
        node.name: [
            call.lineno
            for call in ast.walk(node)
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name) and call.func.id == "isinstance"
        ]
        for node in tree.body
        if isinstance(node, ast.FunctionDef) and node.name in ("_evaluator", "_table_at")
    }
    assert tests == {"_evaluator": [], "_table_at": []}, tests


# `re._parser` from Python 3.11; `sre_parse` before
_PARSER = getattr(re, "_parser", None) or importlib.import_module("sre_parse")


def _opcodes(node):
    """The opcode names of a parsed pattern, nested groups included."""
    if isinstance(node, _PARSER.SubPattern):
        for op, av in node:
            yield str(op)
            yield from _opcodes(av)
    elif isinstance(node, (tuple, list)):
        for item in node:
            yield from _opcodes(item)


def test_no_regex_syntax_newer_than_python_3_10():
    patterns = {
        f"{info.name}.{name}": value
        for info in pkgutil.walk_packages(homleib.__path__, "homleib.")
        for name, value in vars(importlib.import_module(info.name)).items()
        if isinstance(value, re.Pattern)
    }
    assert patterns, "no module-level pattern found"
    too_new = {
        where: sorted(set(_opcodes(_PARSER.parse(p.pattern, p.flags))) & {"POSSESSIVE_REPEAT", "ATOMIC_GROUP"})
        for where, p in patterns.items()
    }
    assert not any(too_new.values()), too_new
