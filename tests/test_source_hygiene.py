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
entry; applying it to one tuple is a batch of one.  Its read-out at the
basis builds the relabelled entries through `entry` and multiplies
nothing, and no module calls `cells` on two unit bases, which the
read-out serves.

Found from the syntax tree too: cohomology.py compiles a substitution
only in `_arities`, which builds each arity's parameters with the
substitutions d's frame reads, and structure.py only in
`Parameters.of` and, for parameters built for other stored variables,
`_evaluator`.  No module outside the kernel names the kernel's one-shot
`substitute_terms`, and only `Parameters.of` builds a `Parameters`.

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

Found from the syntax tree and the parser too: each command family of
the command line declares exactly the flags its commands read.

Found from the source text: no module defines, imports or mentions
`LinearForm` or `to_poly`, as evaluation parameters are polynomials.
Found from the syntax tree too: `structure._evaluator` and `_table_at`
take a `structure.Parameters` only and run no `isinstance` test on it.

Found from the compiled patterns: no module-level pattern uses a
possessive quantifier or an atomic group, which Python 3.11 added and
the package's oldest supported Python (3.10) rejects.
"""

import argparse
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
    # `batch` is the one loop that multiplies coordinates by entries; the
    # read-out at the basis builds its relabelled entries through `entry`,
    # reads no coordinate and multiplies nothing but the list of zeros
    # that each of its values starts from
    tree = _trees()["structure.py"]
    (evaluator,) = [node for node in tree.body if isinstance(node, ast.FunctionDef) and node.name == "_evaluator"]
    source = ast.get_source_segment((SRC / "structure.py").read_text(encoding="utf-8"), evaluator)
    assert source.count("relabelled.get(") == 1
    (read_out,) = [node for node in ast.walk(evaluator) if isinstance(node, ast.FunctionDef) and node.name == "basis_cells"]
    products = [
        node.lineno for node in ast.walk(read_out)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult) and not isinstance(node.left, ast.List)
    ]
    assert products == []
    assert "entry" in _references(read_out) and not {"_coords", "batch", "shifts"} & _references(read_out)


def _is_unit_basis(node) -> bool:
    """node names a unit basis: `basis` or `mods`, as a name or an
    attribute, or `_basis_and_images(...)[0]`."""
    if isinstance(node, ast.Name):
        return node.id in ("basis", "mods")
    if isinstance(node, ast.Attribute):
        return node.attr in ("basis", "mods")
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Call)
        and isinstance(node.value.func, ast.Name)
        and node.value.func.id == "_basis_and_images"
        and isinstance(node.slice, ast.Constant)
        and node.slice.value == 0
    )


def test_no_module_evaluates_a_table_on_two_unit_bases():
    # a table's values on basis pairs are its entries relabelled, which
    # the evaluator's read-out `basis_cells` gives with no coordinate,
    # shift or product; `cells` on two unit bases would evaluate them
    calls = [
        f"{name}:{node.lineno}"
        for name, tree in _trees().items()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "cells"
        and len(node.args) == 2 and all(map(_is_unit_basis, node.args))
    ]
    assert not calls, calls


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
    # for other stored variables compiles its own relabel, for that
    # evaluator only.
    trees = _trees()
    assert _compiling(trees["cohomology.py"]) == {"_arities"}
    assert _compiling(trees["structure.py"]) == {"Parameters.of", "_evaluator"}


def test_every_substitution_is_compiled_and_parameters_have_one_constructor():
    # the kernel's one-shot `substitute_terms` serves the frozen
    # polynomial oracle only; the engine applies compiled substitutions,
    # whose images and powers serve every later call.  `Parameters` is
    # built by `Parameters.of` alone, so every parameter holds its
    # compiled slot shifts.
    trees = _trees()
    one_shot = sorted(
        name for name, tree in trees.items()
        if not name.startswith("_kernel/") and "substitute_terms" in _references(tree)
    )
    assert one_shot == []
    builders = []
    for name, tree in trees.items():
        inside = {
            id(call)
            for cls in tree.body if isinstance(cls, ast.ClassDef) and cls.name == "Parameters"
            for method in cls.body if isinstance(method, ast.FunctionDef) and method.name == "of"
            for call in ast.walk(method)
        }
        builders += [
            f"{name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and id(node) not in inside
            and (isinstance(node.func, ast.Name) and node.func.id == "Parameters"
                 or isinstance(node.func, ast.Attribute) and node.func.attr == "Parameters")
        ]
    assert builders == []


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


def _reaches(tree, start: str) -> list:
    """The syntax trees of `start` and of every module-level function and
    assignment it reaches by name, in the module `tree`."""
    named = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    named.update(
        (target.id, node) for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    )
    seen, todo = {}, [start]
    while todo:
        name = todo.pop()
        if name in named and name not in seen:
            seen[name] = named[name]
            todo += [node.id for node in ast.walk(named[name]) if isinstance(node, ast.Name)]
    return list(seen.values())


def test_every_flag_is_read_by_its_family():
    # a family's parser declares exactly the flags some command of the
    # family reads: each flag's dest is read as `args.<dest>` by the
    # family's dispatcher or by a function, lambda or table it reaches
    from homleib.cli import build_parser

    tree = _trees()["cli.py"]
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for family, parser in sub.choices.items():
        declared = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        read = {
            node.attr
            for reached in _reaches(tree, parser.get_default("func").__name__)
            for node in ast.walk(reached)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
        }
        positional = {a.dest for a in parser._actions if not a.option_strings}
        assert declared and declared == read - positional, family


def test_every_command_declares_the_flags_it_reads():
    # each command's entry in its family's table declares exactly the
    # flags its function reads as `args.<dest>`, with the functions,
    # lambdas and tables it reaches, and each family's dispatcher passes
    # `_command` exactly the flags it reads itself, for every command
    from homleib.cli import build_parser

    tree = _trees()["cli.py"]
    tables = {
        target.id: node.value for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if isinstance(target, ast.Name)
    }
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for family, parser in sub.choices.items():
        positional = {a.dest for a in parser._actions if not a.option_strings}
        dispatcher = functions[parser.get_default("func").__name__]
        (call,) = [
            node for node in ast.walk(dispatcher)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_command"
        ]
        table, _, *shared = call.args
        assert _args_read([dispatcher]) - positional == _dests(ast.literal_eval(arg) for arg in shared), family
        commands = tables[table.id]
        choices = next(a.choices for a in parser._actions if a.dest == "what")
        assert [ast.literal_eval(key) for key in commands.keys] == list(choices), family
        for key, entry in zip(commands.keys, commands.values):
            run, reads = entry.elts
            reached = [run] + [
                node for name in {n.id for n in ast.walk(run) if isinstance(n, ast.Name)} for node in _reaches(tree, name)
            ]
            assert _args_read(reached) - positional == _dests(ast.literal_eval(reads)), (family, key.value)


def _args_read(nodes) -> set:
    """The attributes read off `args` in the syntax trees nodes."""
    return {
        node.attr for reached in nodes for node in ast.walk(reached)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "args"
    }


def _dests(flags) -> set:
    return {flag[2:].replace("-", "_") for flag in flags}


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
