"""Repository hygiene: every module-level function and class in the package,
and every non-dunder method and property of its classes, is used somewhere,
and outside the tests unless it is kept on purpose, every dataclass field and `__slots__` name of its classes is read somewhere,
every parameter of its functions is read in the function's body,
every module of the package and the tests uses what it imports, and
`emsum.__all__` lists exactly the package's public names, so dead helpers,
fields, parameters, leftover imports and stale exports cannot accumulate
unnoticed."""

import ast
import inspect
import itertools
import re
from pathlib import Path

import emsum

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "emsum"
SEARCHED = ("src", "tests", "demos")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _top_level_names(tree: ast.Module) -> list:
    return [
        node.name
        for node in tree.body
        if isinstance(node, FUNCTIONS + (ast.ClassDef,))
    ]


def _method_names(tree: ast.Module) -> list:
    return [
        f"{node.name}.{item.name}"
        for node in tree.body
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, FUNCTIONS) and not item.name.startswith("__")
    ]


def _sources(folders) -> list:
    return [
        path
        for folder in folders
        for path in sorted((ROOT / folder).rglob("*"))
        if path.suffix in (".py", ".sh") and "__pycache__" not in path.parts
    ]


def _scanned(text: str, suffix: str) -> tuple:
    """(names, attributes) that a source file can name a definition by: in
    Python, the names its code reads (`Name` nodes and the names it
    imports) and the attributes it reads off objects, so docstrings,
    comments and strings name nothing; in any other file, such as a shell
    script, every word of its text and every word after a dot."""
    if suffix != ".py":
        return set(re.findall(r"\w+", text)), set(re.findall(r"\.(\w+)", text))
    names, attributes = set(), set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attributes.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(part for alias in node.names for part in alias.name.split("."))
    return names, attributes


def _names(scanned, qualname: str) -> bool:
    """Whether a `_scanned` file uses a definition: a function or class by
    its name, a method or property only where it is read off an object as
    `.name`, so a namesake such as `operator.mul` imported as `mul` does not
    count."""
    names, attributes = scanned
    name = qualname.rpartition(".")[2]
    return name in attributes or "." not in qualname and name in names


def _unnamed(definitions, paths=None) -> list:
    """The qualified names that no file of `paths` (default: every source
    file of SEARCHED) uses."""
    scanned = [
        _scanned(path.read_text(encoding="utf-8"), path.suffix)
        for path in (_sources(SEARCHED) if paths is None else paths)
    ]
    return [
        f"{module.name}:{qualname}"
        for module in sorted(PACKAGE.glob("*.py"))
        for qualname in definitions(ast.parse(module.read_text(encoding="utf-8")))
        if not any(_names(s, qualname) for s in scanned)
    ]


def test_a_name_in_prose_is_no_use():
    # a docstring, a comment or an error message that names a definition
    # does not keep it alive; a shell script names one by its text
    probe = _scanned('def kept():\n    """Unlike `dropped`."""\n    raise ValueError("dropped")  # dropped\n'
                     "\n\nkept()\nobj.method()\n", ".py")
    names = ("kept", "dropped", "K.method", "K.other")
    assert [q for q in names if not _names(probe, q)] == ["dropped", "K.other"]
    assert _names(_scanned("emsum dropped --flag\n", ".sh"), "dropped")


def test_every_top_level_definition_is_named_elsewhere():
    unused = _unnamed(_top_level_names)
    assert unused == [], f"defined but never named elsewhere: {unused}"


def test_every_method_and_property_is_named_elsewhere():
    unused = _unnamed(_method_names)
    assert unused == [], f"defined but never named elsewhere: {unused}"


# Definitions that only tests call, each kept on purpose.
TEST_ONLY = {
    "combinat.py:c_seq": "the half-line corrections c_n, for acceptance criterion 1",
    "combinat.py:c_seq_twisted": "the twisted corrections c_n^omega, for acceptance criterion 2",
    "combinat.py:J_mu": "the Szasz moment polynomials J_mu, for acceptance criterion 10",
    "conecalc.py:ibp_op": "the peeling route of L(E; I, J; alpha), for acceptance criterion 4",
    "conecalc.py:ibp_symbol": "the symbol route that checks ibp_op, for acceptance criterion 4",
    "conecalc.py:ln_op": "the paper's face operators L_n(C; I), a kept reference",
    "conecalc.py:dual_projection": "the projection that fixes outer-set symbols, a kept reference",
    "geometry.py:euler_brion_window_check": "the Brion window identity, for acceptance criterion 10",
    "oracle.py:szasz_eval": "the Szasz functions, for acceptance criterion 10",
    "oracle.py:twisted_riemann_1d": "the twisted half-line sums, the reference for c_seq_twisted",
    "exactcore.py:CycloElem.as_rational": "reads off rational values of the twisted checks",
    "geometry.py:LatticePolytope.face_by_vertex_ids": "names a face by its vertices, for callers",
    "exactcore.py:MultiPoly.coefficient": "reads one coefficient of p(n,k;z), for acceptance criterion 3",
    "engine.py:ExpansionResult.coefficient": "reads one A_n, for acceptance criteria 6 and 7",
}


def test_no_definition_lives_for_tests_alone():
    # the package and the demos, without the package's re-exports, must
    # name every definition but the kept ones
    paths = [
        path for path in _sources(("src", "demos"))
        if path != PACKAGE / "__init__.py"
    ]
    unused = _unnamed(lambda tree: _top_level_names(tree) + _method_names(tree), paths)
    assert sorted(unused) == sorted(TEST_ONLY), (
        f"named only by tests: {sorted(set(unused) - set(TEST_ONLY))}; "
        f"no longer test-only: {sorted(set(TEST_ONLY) - set(unused))}"
    )


def _is_dataclass(node: ast.ClassDef) -> bool:
    return any(
        getattr(d.func if isinstance(d, ast.Call) else d, "id", None)
        == "dataclass"
        for d in node.decorator_list
    )


def _declared_fields(node: ast.ClassDef) -> list:
    """The dataclass fields and `__slots__` names a class body declares."""
    names = []
    for item in node.body:
        if (
            isinstance(item, ast.AnnAssign)
            and isinstance(item.target, ast.Name)
            and _is_dataclass(node)
        ):
            names.append(item.target.id)
        elif isinstance(item, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets
        ):
            names.extend(ast.literal_eval(item.value))
    return names


def test_every_field_is_read():
    read = {
        node.attr
        for folder in SEARCHED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    unread = [
        f"{module.stem}.{node.name}.{name}"
        for module in sorted(PACKAGE.glob("*.py"))
        for node in ast.parse(module.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef)
        for name in _declared_fields(node)
        if name not in read
    ]
    assert unread == [], f"declared but never read: {unread}"


def _unused_imports(path: Path) -> list:
    """Names a module imports but never reads; names listed in its
    `__all__` count as read."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(
                (alias.asname or alias.name).partition(".")[0]
                for alias in node.names
            )
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(alias.asname or alias.name for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__"
            for target in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(imported - used)


def test_no_unused_imports():
    # __init__.py imports are the package's public re-exports.
    unused = [
        f"{path.relative_to(ROOT)}:{name}"
        for folder in (PACKAGE, ROOT / "tests")
        for path in sorted(folder.glob("*.py"))
        if path.name != "__init__.py"
        for name in _unused_imports(path)
    ]
    assert unused == [], f"imported but never used: {unused}"


def test_all_lists_exactly_the_public_names():
    # an export deleted from the imports but left in __all__ breaks
    # `from emsum import *`, and one imported but left out of __all__ is
    # public by accident
    bound = {
        name
        for name, value in vars(emsum).items()
        if not name.startswith("_") and not inspect.ismodule(value)
    }
    assert set(emsum.__all__) == bound | {"__version__"}


ENGINE_MODULES = ("combinat", "conecalc", "subdivide", "engine")


def _engine_imports(nodes) -> set:
    """The names that import statements among `nodes` bind to the engine
    modules or to anything defined in them."""
    names = set()
    for node in nodes:
        if isinstance(node, ast.Import):
            names.update(
                alias.asname or alias.name.partition(".")[0]
                for alias in node.names
                if alias.name.rpartition(".")[2] in ENGINE_MODULES
            )
        elif isinstance(node, ast.ImportFrom):
            source = (node.module or "").rpartition(".")[2]
            names.update(
                alias.asname or alias.name
                for alias in node.names
                if source in ENGINE_MODULES or alias.name in ENGINE_MODULES
            )
    return names


def test_riemann_sum_shares_no_code_with_the_engine():
    # the oracle is ground truth for the engine only while it stays
    # independent of the engine's Bernoulli, Todd and operator code
    tree = ast.parse((PACKAGE / "oracle.py").read_text(encoding="utf-8"))
    functions = {
        node.name: node for node in tree.body if isinstance(node, FUNCTIONS)
    }
    forbidden = _engine_imports(ast.walk(tree))
    reached, todo, named = set(), ["riemann_sum"], []
    while todo:
        name = todo.pop()
        reached.add(name)
        nodes = list(ast.walk(functions[name]))
        named += sorted(_engine_imports(nodes))
        for node in nodes:
            if isinstance(node, ast.Name):
                if node.id in forbidden:
                    named.append(f"{name}:{node.id}")
                elif node.id in functions and node.id not in reached:
                    todo.append(node.id)
    assert "_power_sum" in reached
    assert named == [], f"riemann_sum reaches engine code: {named}"


def test_cli_and_demos_import_no_private_subdivide_name():
    # a cone's signed decomposition is chosen behind `cone_operator`, and
    # the CLI and the demos read it there, not off private helpers
    private = [
        f"{path.relative_to(ROOT)}:{alias.name}"
        for path in [PACKAGE / "cli.py", *sorted((ROOT / "demos").glob("*.py"))]
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ImportFrom) and (node.module or "").endswith("subdivide")
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == [], f"private subdivide names imported: {private}"


def test_invariant_modules_have_no_assert_statement():
    # python -O strips assert statements, so invariants in every module of
    # the package raise explicitly instead
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert found == [], f"assert statements that python -O strips: {found}"


def _silent_assertion_errors(tree: ast.AST) -> list:
    """The line of each `raise AssertionError` with no message: the bare
    class, a call with no argument, or an empty string."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Raise) or node.exc is None:
            continue
        call = node.exc if isinstance(node.exc, ast.Call) else None
        if getattr(call.func if call else node.exc, "id", None) != "AssertionError":
            continue
        message = call.args[0] if call and call.args else None
        if message is None or (isinstance(message, ast.Constant) and not message.value):
            found.append(node.lineno)
    return found


def test_every_invariant_is_named():
    # the CLI prints an internal error as its type and message, so a bare
    # AssertionError would say nothing of what broke
    probe = ("raise AssertionError\nraise AssertionError()\nraise AssertionError('')\n"
             "raise AssertionError('named')\nraise ValueError\nraise\n")
    assert _silent_assertion_errors(ast.parse(probe)) == [1, 2, 3]
    found = [
        f"{path.name}:{line}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line in _silent_assertion_errors(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], f"AssertionError raised with no message: {found}"


# The `math` names the package uses, each exact on integers.
EXACT_MATH = {"comb", "factorial", "gcd", "lcm", "perm", "prod"}


def _inexact_nodes(tree: ast.AST) -> list:
    """(line, what) for each float or complex literal, call to `float` or
    `round`, and `math` name outside EXACT_MATH in the tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Constant) and type(node.value) in (float, complex):
            found.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) \
                and node.func.id in ("float", "round"):
            found.append((node.lineno, f"{node.func.id}()"))
        elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                and node.value.id == "math" and node.attr not in EXACT_MATH:
            found.append((node.lineno, f"math.{node.attr}"))
        elif isinstance(node, ast.ImportFrom) and node.module == "math":
            found += [(node.lineno, f"math.{a.name}") for a in node.names
                      if a.name not in EXACT_MATH]
    return found


def test_package_source_has_no_floating_point():
    # the static half of the no-floating-point rule; at run time
    # `as_scalar` and `MultiPoly` reject float input
    probe = "x = 0.5 + 2j\ny = round(x) + float(1)\nmath.sqrt(math.gcd(4, 6))\nfrom math import pi, prod\n"
    assert sorted(_inexact_nodes(ast.parse(probe))) == [
        (1, "0.5"), (1, "2j"), (2, "float()"), (2, "round()"),
        (3, "math.sqrt"), (4, "math.pi")]
    found = [
        f"{path.name}:{line}: {what}"
        for path in sorted(PACKAGE.glob("*.py"))
        for line, what in _inexact_nodes(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert found == [], f"floating point in the package source: {found}"


def _unread_parameters(path: Path) -> list:
    """`file:function(parameter)` for each parameter, other than self and
    cls, that its function's body never reads as a name."""
    unread = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, FUNCTIONS + (ast.Lambda,)):
            continue
        args = node.args
        params = args.posonlyargs + args.args + args.kwonlyargs
        params += [a for a in (args.vararg, args.kwarg) if a is not None]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {
            sub.id
            for stmt in body
            for sub in ast.walk(stmt)
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)
        }
        name = getattr(node, "name", "<lambda>")
        unread += [
            f"{path.name}:{name}({p.arg})"
            for p in params
            if p.arg not in ("self", "cls") and p.arg not in read
        ]
    return unread


def test_every_parameter_is_read():
    # a parameter that nothing reads is a knob that does nothing
    unread = [
        case
        for path in sorted(PACKAGE.glob("*.py"))
        for case in _unread_parameters(path)
    ]
    assert unread == [], f"parameters never read: {unread}"


# functools names that memoize for as long as what they wrap lives
MEMOIZERS = {"cache", "lru_cache"}
# methods that write into a dict, list or set
MUTATORS = {"add", "append", "clear", "extend", "insert", "pop", "popitem", "setdefault", "update"}


def _memoizer(node: ast.AST) -> bool:
    """Whether a decorator or a callee names a memoizer: bare, called or as
    `functools.<name>`."""
    while isinstance(node, ast.Call):
        node = node.func
    return getattr(node, "id", getattr(node, "attr", None)) in MEMOIZERS


def _module_caches(tree: ast.Module) -> list:
    """The names of a module's caches that outlive a call: each function or
    method defined at module or class level under a memoizing decorator,
    each module-level name bound to a memoized callable, each module-level
    dict, list or set that some code writes into, and each name that a
    `global` statement rebinds."""
    found, containers = set(), set()
    classes = [node.body for node in tree.body if isinstance(node, ast.ClassDef)]
    for node in itertools.chain(tree.body, *classes):
        if isinstance(node, FUNCTIONS) and any(map(_memoizer, node.decorator_list)):
            found.add(node.name)
    bound = []
    for node in tree.body:
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and node.value is not None:
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                if isinstance(target, ast.Tuple) and isinstance(node.value, ast.Tuple):
                    bound += zip(target.elts, node.value.elts)
                else:
                    bound.append((target, node.value))
    for target, value in bound:
        name = getattr(target, "id", None)
        if name is None:
            continue
        if isinstance(value, ast.Call) and _memoizer(value):
            found.add(name)
        elif isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
                isinstance(value, ast.Call) and getattr(value.func, "id", None) in ("dict", "list", "set")):
            containers.add(name)
    for node in ast.walk(tree):
        if isinstance(node, ast.Global):
            found.update(node.names)
        elif isinstance(node, ast.Subscript) and not isinstance(node.ctx, ast.Load):
            found.update({getattr(node.value, "id", None)} & containers)
        elif isinstance(node, ast.Call) and getattr(node.func, "attr", None) in MUTATORS:
            found.update({getattr(node.func.value, "id", None)} & containers)
    return sorted(found)


def test_module_level_caches_are_exactly_the_number_tables():
    # a cache that outlives a call would let one input's work serve the
    # next; only three pure functions of small integers keep one
    probe = ("import functools\nfrom functools import lru_cache\n"
             "TABLE, SEEN, HITS = {'x': 1}, {}, []\n"
             "class K:\n    @functools.cache\n    def m(self): pass\n"
             "@lru_cache(maxsize=None)\ndef f(n):\n    SEEN[n] = n\n    HITS.append(n)\n    return TABLE[n]\n"
             "g = functools.cache(len)\n"
             "def h():\n    global STATE\n    STATE = 1\n")
    assert _module_caches(ast.parse(probe)) == ["HITS", "SEEN", "STATE", "f", "g", "m"]
    found = {
        f"{path.stem}.{name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name in _module_caches(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert found == {"combinat.stirling2", "combinat.p_of_n", "exactcore.cyclotomic_polynomial"}
