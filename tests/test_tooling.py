"""Static checks of the source tree, read with `ast`.

Every import in a `src/valrep` module (apart from the package's own
re-exports in `__init__.py`) is used by that module, no module imports
sympy, which is a test-only dependency, every callable
that `perfbench/tracer.py` times, listed in its `TARGETS`, still resolves,
the package `__init__.py` re-exports at least one traced function, and
every function, method and class defined in `src/valrep` is named
somewhere besides its definition, and only `RepTable.__init__` and
`pants_rep` take a `degree_bound`, and the CLI's --order and
--valuation help strings list exactly the spec heads `fields.SPEC_HEADS`
accepts.  perfbench is only read, never imported or edited.  Two
behavioural guards sit beside them: `symplectic.signature` stays
division-free, so it needs no division over Q(X) and is exact over the
integers, and the Lagrangian constructors whose rows are already in
reduced echelon form (`line`, `graph`, `horizontal`, `vertical`) never
call `Matrix.rref`.
"""

import ast
import importlib
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(p for p in (ROOT / "src" / "valrep").glob("*.py") if p.name != "__init__.py")


def imported_names(tree):
    """(bound name, line) for every import except `from __future__`."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield (alias.asname or alias.name.split(".")[0]), node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield (alias.asname or alias.name), node.lineno


def used_names(tree):
    """Names read anywhere in the module, quoted annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                names |= used_names(ast.parse(ann.value, mode="eval"))
    return names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text())
    used = used_names(tree)
    unused = [f"{name} (line {line})" for name, line in imported_names(tree) if name not in used]
    assert not unused, f"{path.name} imports but never uses: {', '.join(unused)}"


def test_no_module_imports_sympy():
    """sympy is a test oracle only: no import of it at any scope, function-local included."""
    found = []
    for path in sorted((ROOT / "src" / "valrep").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            found += [f"{path.name}:{node.lineno}" for n in names if n.split(".")[0] == "sympy"]
    assert not found, f"sympy imported in src/valrep at {found}"


def tracer_targets():
    tree = ast.parse((ROOT / "perfbench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "TARGETS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError("perfbench/tracer.py defines no TARGETS")


def test_traced_targets_resolve():
    missing = []
    for module, qualname, _ in tracer_targets():
        obj = importlib.import_module(f"valrep.{module}")
        for part in qualname.split("."):
            obj = getattr(obj, part, None)
        if not callable(obj):
            missing.append(f"{module}.{qualname}")
    assert not missing, f"tracer targets that no longer resolve: {missing}"


def test_package_reexports_a_traced_function():
    """`valrep/__init__.py` binds a module-level function among the tracer's TARGETS.

    perfbench's selftest asserts that the tracer patches a binding owned
    by the package itself, and only such a re-export gives it one.
    """
    tree = ast.parse((ROOT / "src" / "valrep" / "__init__.py").read_text())
    bound = {
        (node.module, alias.name)
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }
    functions = {(module, qualname) for module, qualname, _ in tracer_targets() if "." not in qualname}
    assert bound & functions, "valrep/__init__.py re-exports no traced function"


def definitions(tree, prefix=""):
    """(qualified name, name) of every function, method and class, nested ones included."""
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            qualname = prefix + node.name
            yield qualname, node.name
            yield from definitions(node, qualname + ".")


def test_every_definition_is_named_elsewhere():
    """Each definition is named in src, tests, perfbench or README.md more often than it is defined.

    Dunders, which Python calls by protocol, and the tracer's TARGETS,
    which perfbench reaches by name, are exempt.
    """
    sources = [*(ROOT / "src" / "valrep").glob("*.py"), *(ROOT / "tests").glob("*.py"),
               *(ROOT / "perfbench").rglob("*.py"), ROOT / "README.md"]
    text = "\n".join(path.read_text() for path in sources)
    targets = {(module, qualname) for module, qualname, _ in tracer_targets()}
    defined = {
        (path.stem, qualname, name)
        for path in (ROOT / "src" / "valrep").glob("*.py")
        for qualname, name in definitions(ast.parse(path.read_text()))
    }
    times_defined = Counter(name for _, _, name in defined)
    unnamed = sorted(
        f"{module}.{qualname}"
        for module, qualname, name in defined
        if not (name.startswith("__") and name.endswith("__"))
        and (module, qualname) not in targets
        and len(re.findall(rf"\b{re.escape(name)}\b", text)) <= times_defined[name]
    )
    assert not unnamed, f"defined but never named elsewhere: {unnamed}"


def test_cli_reads_each_spec_kind_in_one_function():
    """OrderSpec and Valuation specs reach cli.py through one reader each, flags and JSON alike."""
    callers = {"OrderSpec": set(), "Valuation": set()}

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                visit(child, getattr(child, "name", "<lambda>"))
                continue
            func = getattr(child, "func", None)
            if (
                isinstance(child, ast.Call)
                and isinstance(func, ast.Attribute)
                and func.attr == "from_spec_string"
                and isinstance(func.value, ast.Name)
                and func.value.id in callers
            ):
                callers[func.value.id].add(function)
            visit(child, function)

    visit(ast.parse((ROOT / "src" / "valrep" / "cli.py").read_text()), "<module>")
    assert all(callers.values()), f"a spec kind is never read: {callers}"
    spread = {kind: sorted(names) for kind, names in callers.items() if len(names) > 1}
    assert not spread, f"spec readers called from several functions: {spread}"


def test_cli_spec_help_lists_the_spec_table():
    """The --order and --valuation help strings name exactly the heads of `SPEC_HEADS`.

    Each listed form parses, with A = 0 where it takes an anchor, and its
    spec_string gives the same text back.
    """
    from valrep.fields import SPEC_HEADS, OrderSpec
    from valrep.valuation import Valuation

    helps = {}
    for node in ast.walk(ast.parse((ROOT / "src" / "valrep" / "cli.py").read_text())):
        if (
            isinstance(node, ast.Call)
            and getattr(node.func, "attr", None) == "add_argument"
            and node.args
            and getattr(node.args[0], "value", None) in ("--order", "--valuation")
        ):
            helps[node.args[0].value] = next(k.value.value for k in node.keywords if k.arg == "help")
    listed = {}
    for flag, spec in (("--order", OrderSpec), ("--valuation", Valuation)):
        for form in helps[flag].split(" | "):
            head, _, anchor = form.partition(":")
            assert anchor in ("", "A") and head not in listed, form
            listed[head] = (anchor == "A", flag == "--valuation")
            text = form.replace(":A", ":0")
            assert spec.from_spec_string(text).spec_string() == text
    table = {head: (anchored, side == 0) for head, (anchored, side) in SPEC_HEADS.items()}
    assert listed == table


def test_only_the_representation_takes_a_degree_bound():
    """The degree guard on word images has one owner: RepTable, which pants_rep passes it to."""
    takers = set()
    for path in MODULES:
        tree = ast.parse(path.read_text())

        def visit(node, prefix):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    args = child.args
                    params = args.posonlyargs + args.args + args.kwonlyargs
                    if any(a.arg == "degree_bound" for a in params):
                        takers.add(f"{path.stem}.{prefix}{child.name}")
                if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                    visit(child, prefix + child.name + ".")

        visit(tree, "")
    assert takers == {"representation.RepTable.__init__", "pants.pants_rep"}, sorted(takers)


def test_signature_is_division_free(monkeypatch):
    from valrep.fields import OrderSpec, RatFunc
    from valrep.linalg import Matrix
    from valrep.poly import Poly
    from valrep.symplectic import signature

    from helpers import gram_signature

    x = RatFunc.coerce(Poly((0, 1)))
    one = RatFunc.coerce(1)
    sym = Matrix([[x, one, x / (x + 1)], [one, -x, x * x], [x / (x + 1), x * x, one - x]])

    orders = (OrderSpec.at_plus(0), OrderSpec.minus_infinity())
    expected = [gram_signature(sym, order) for order in orders]

    def no_division(*args):
        raise AssertionError("signature divided in Q(X)")

    monkeypatch.setattr(RatFunc, "__truediv__", no_division)
    assert [signature(sym, order) for order in orders] == expected
    # over Z a division would leave the ring (int / int is a float)
    a = 3**40
    assert signature(Matrix([[1, a], [a, a * a + 1]])) == (2, 0, 0)


def test_direct_lagrangian_forms_do_not_eliminate(monkeypatch):
    from fractions import Fraction

    from valrep.fields import RatFunc
    from valrep.linalg import Matrix
    from valrep.poly import Poly
    from valrep.symplectic import Lagrangian

    x = RatFunc.coerce(Poly((0, 1)))
    one = RatFunc.coerce(1)

    def no_elimination(self):
        raise AssertionError("a form already in echelon form was eliminated again")

    monkeypatch.setattr(Matrix, "rref", no_elimination)
    forms = [
        Lagrangian.line(Fraction(3, 2)),
        Lagrangian.line(x / (x + 1)),
        Lagrangian.line(None),
        Lagrangian.graph(Matrix([[Fraction(1), Fraction(2)], [Fraction(2), Fraction(5)]])),
        Lagrangian.graph(Matrix([[x, one], [one, x * x]])),
        Lagrangian.horizontal(2),
        Lagrangian.vertical(2, one),
    ]
    assert [l.n for l in forms] == [1, 1, 1, 2, 2, 2, 2]
