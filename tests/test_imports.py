"""Static checks: every name a module imports is used in that module,
every name a function binds is read in that function, every parameter
of a program function is read in it, every annotated class field of the
program is read by the program, and every top-level function and class
of the program is referenced by the program.  One run-time check too:
importing the command line loads no concurrency module.

The checks walk each file's syntax tree, so they need no linter.  An
imported name counts as used when it appears as a name anywhere in the
module or is listed in ``__all__``.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "hitchinlab").glob("*.py"))
FILES = SRC + sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """The imported names of ``source`` that it never uses, with their lines."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in node.value.elts if isinstance(e, ast.Constant)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items()) if name not in used]


def test_no_unused_imports():
    # the check itself sees an unused import, a used one and an export
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == ["os (line 1)"]
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    found = {
        str(path.relative_to(ROOT)): unused
        for path in FILES
        if (unused := unused_imports(path.read_text()))
    }
    assert found == {}


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(fn: ast.AST):
    """The nodes of ``fn``'s body outside the functions and classes it defines."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def unused_locals(source: str) -> list[str]:
    """The names a function of ``source`` binds and never reads, with their lines.

    A binding is an assignment, ``for`` or ``with`` target in the function's
    own body; a read anywhere in the function, nested functions included,
    counts.  Names starting with ``_`` are exempt.
    """
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        for node in _own_nodes(fn):
            if isinstance(node, ast.Assign):
                targets = node.targets
            elif isinstance(node, (ast.AnnAssign, ast.For, ast.AsyncFor)):
                targets = [node.target]
            elif isinstance(node, (ast.With, ast.AsyncWith)):
                targets = [item.optional_vars for item in node.items if item.optional_vars]
            else:
                continue
            for target in targets:
                for n in ast.walk(target):
                    if (
                        isinstance(n, ast.Name)
                        and isinstance(n.ctx, ast.Store)
                        and not n.id.startswith("_")
                        and n.id not in read
                    ):
                        found.add((n.id, n.lineno))
    return [f"{name} (line {line})" for name, line in sorted(found)]


def test_no_unused_locals():
    # the check itself sees an unread assignment, unread for and with
    # targets, a read in a nested function and an exempt name
    assert unused_locals("def f():\n    x = 1\n    y = 2\n    return y\n") == ["x (line 2)"]
    loops = "def f(p):\n    for i, _j in p:\n        pass\n    with open(p) as fh:\n        pass\n"
    assert unused_locals(loops) == ["fh (line 4)", "i (line 2)"]
    nested = "def f():\n    x = 1\n    def g():\n        return x\n    return g\n"
    assert unused_locals(nested) == []
    found = {
        str(path.relative_to(ROOT)): unused
        for path in FILES
        if (unused := unused_locals(path.read_text()))
    }
    assert found == {}


def _only_raises(fn: ast.AST) -> bool:
    """Whether ``fn``'s body, its docstring aside, is nothing but ``raise``."""
    body = [
        s for s in fn.body if not (isinstance(s, ast.Expr) and isinstance(s.value, ast.Constant))
    ]
    return bool(body) and all(isinstance(s, ast.Raise) for s in body)


def unread_params(source: str) -> list[str]:
    """The parameters of the functions of ``source`` that are never read,
    with their function and line.

    A read anywhere in the function, nested functions included, counts.
    ``self``, names starting with ``_`` and functions whose body only
    raises (stubs that a subclass overrides) are exempt.
    """
    found = set()
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) or _only_raises(fn):
            continue
        read = {
            n.id
            for n in ast.walk(fn)
            if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)
        }
        a = fn.args
        for arg in a.posonlyargs + a.args + a.kwonlyargs + [x for x in (a.vararg, a.kwarg) if x]:
            if arg.arg != "self" and not arg.arg.startswith("_") and arg.arg not in read:
                found.add((fn.name, arg.arg, arg.lineno))
    return [f"{fn}: {name} (line {line})" for fn, name, line in sorted(found)]


def test_no_unread_parameters():
    # the check itself sees an unread parameter, a read in a nested function,
    # and the exempt self, _-names and raising stubs
    assert unread_params("def f(a, b, *c, d, **e):\n    return b\n") == [
        "f: a (line 1)",
        "f: c (line 1)",
        "f: d (line 1)",
        "f: e (line 1)",
    ]
    nested = "def f(x):\n    def g():\n        return x\n    return g\n"
    assert unread_params(nested) == []
    exempt = (
        "class A:\n    def m(self, _x):\n        return 1\n"
        "    def stub(self, y):\n        \"\"\"Doc.\"\"\"\n        raise NotImplementedError\n"
    )
    assert unread_params(exempt) == []
    found = {
        str(path.relative_to(ROOT)): unread
        for path in SRC
        if (unread := unread_params(path.read_text()))
    }
    assert found == {}


# the benchmark's sweep workload reads it; it goes with that read (ROADMAP items 8 and 24)
UNREAD_FIELD_EXEMPT = ("RunConfig.radius",)


def unread_fields(sources: list[str]) -> list[str]:
    """The annotated class fields of ``sources``, as ``Class.field``, that no
    code of the sources reads as an attribute.

    A read is an attribute load ``x.field`` anywhere in the sources, in the
    class itself too; a store or a docstring mention is not one.
    """
    fields, reads = [], set()
    for source in sources:
        tree = ast.parse(source)
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                fields += [
                    f"{cls.name}.{stmt.target.id}"
                    for stmt in cls.body
                    if isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name)
                ]
        reads |= {
            n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)
        }
    return sorted(f for f in fields if f.split(".", 1)[1] not in reads)


def test_every_field_is_read():
    # the check itself sees a field only stored, one named only in a
    # docstring, and reads in its own class and in another module
    snippet = [
        'class A:\n    """Has b."""\n    a: int\n    b: int = 0\n    c: int\n'
        "    def f(self):\n        self.c = 1\n        return self.a\n",
        "def g(x):\n    return x.d\nclass D:\n    d: float\n",
    ]
    assert unread_fields(snippet) == ["A.b", "A.c"]
    found = unread_fields([path.read_text() for path in SRC])
    assert found == list(UNREAD_FIELD_EXEMPT)


def test_importing_the_cli_loads_no_concurrency_module():
    """A run in one process does not pay for the worker pool's imports."""
    probe = (
        "import sys, hitchinlab.cli\n"
        "print([m for m in ('concurrent.futures', 'multiprocessing') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    out = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120, check=True
    )
    assert out.stdout.strip() == "[]"


FLOORS = (1e-300, 1e-12)


def floor_literals(source: str) -> list[str]:
    """The top-level functions and classes of ``source`` that hold a literal
    1e-300 or 1e-12, once per literal (``<module>`` outside them).

    A value of a dict display is a budget (``Row.budgets``), not a floor,
    and does not count.
    """
    tree = ast.parse(source)
    budgets = {id(v) for d in ast.walk(tree) if isinstance(d, ast.Dict) for v in d.values}
    owner = {}
    for top in tree.body:
        name = getattr(top, "name", "<module>")
        owner.update((id(n), name) for n in ast.walk(top))
    return sorted(
        owner[id(n)]
        for n in ast.walk(tree)
        if isinstance(n, ast.Constant)
        and type(n.value) is float
        and n.value in FLOORS
        and id(n) not in budgets
    )


def test_one_floor_divides_the_residuals():
    # the check itself sees a floor in a function, one at module level, and
    # skips a budget and a docstring that names the floor
    snippet = (
        'def f(x):\n    """Floored at 1e-300."""\n    return x / max(x, 1e-300)\n'
        "B = {'torus': 1e-12}\nC = max(1.0, 1e-12)\n"
    )
    assert floor_literals(snippet) == ["<module>", "f"]
    # the catalog driver divides each case once; the section builders
    # normalize their sections and keep their own floor
    pkg = ROOT / "src" / "hitchinlab"
    found = {
        name: floor_literals((pkg / name).read_text())
        for name in ("catalog.py", "bundle.py", "operators.py")
    }
    assert found == {
        "catalog.py": ["case_ratio"],
        "bundle.py": [],
        "operators.py": ["chart_sections", "torus_sections"],
    }


def unreferenced_definitions(sources: dict[str, str]) -> list[str]:
    """The top-level functions and classes of the modules ``sources`` (name to
    text) that no code of the modules references, with their module.

    A reference is a name, an attribute or an imported name equal to the
    definition's, outside the definition itself; a docstring mention is not
    one.  Names are matched across modules, as the program imports them.
    """
    defined: list[tuple[str, str]] = []
    refs: dict[str, set[tuple[str, str]]] = {}
    for module, source in sources.items():
        for top in ast.parse(source).body:
            owner = (module, getattr(top, "name", "<module>"))
            if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.append(owner)
            for n in ast.walk(top):
                if isinstance(n, ast.Name):
                    names = [n.id]
                elif isinstance(n, ast.Attribute):
                    names = [n.attr]
                elif isinstance(n, ast.ImportFrom):
                    names = [alias.name for alias in n.names]
                else:
                    continue
                for name in names:
                    refs.setdefault(name, set()).add(owner)
    return [
        f"{module}: {name}"
        for module, name in defined
        if not refs.get(name, set()) - {(module, name)}
    ]


def test_every_definition_is_referenced():
    # the check itself sees a recursive function nothing else calls, a class
    # named only in a docstring, and references by name, attribute and import
    snippet = {
        "a": 'def f(n):\n    return f(n - 1)\n\nclass C:\n    """Not D."""\n\nclass D:\n    pass\n',
        "b": "from a import C\nimport a\n\ndef g():\n    return a.D, C\n\nh = g\n",
    }
    assert unreferenced_definitions(snippet) == ["a: f"]
    found = unreferenced_definitions({path.stem: path.read_text() for path in SRC})
    assert found == []


POINT_BUILDERS = ("G_of", "H_of", "vj_of", "trace_nabla", "trace_nabla_endo")
# a point residual reads Delta_{G(V)} s and Delta_{G(V)}(m s) from the point
POINT_OPERATORS = ("delta_G", "u_apply")
# the one exception: a reduction potential other than the Ricci one has a
# multiplier m of its own, so its Delta_{G(V)}(m s) is not the point's
OWN_MULTIPLIER = ("connection_agreement_residual", "u_apply")
# the point's Delta_{G(V)} s and Delta_{G(V)}(m s) that each residual reads
POINT_DELTAS = {
    "eq_defining_residual": {"delta_s"},
    "eq_transfer_residual": {"delta_s"},
    "operator_pullback_residual": {"delta_ms"},
    "connection_agreement_residual": {"delta_ms"},
}


def _is_residual(name: str) -> bool:
    return name.startswith("eq_") or name.endswith(("_residual", "_residuals"))


def _other_potential_branch(fn: ast.FunctionDef) -> set[int]:
    """The nodes of ``fn`` (by ``id``) in the ``else`` of an
    ``if which == "ricci":``, the branch of another reduction potential."""
    nodes = set()
    for n in ast.walk(fn):
        if isinstance(n, ast.If) and ast.unparse(n.test) == "which == 'ricci'":
            nodes |= {id(x) for stmt in n.orelse for x in ast.walk(stmt)}
    return nodes


def builder_calls(source: str) -> dict[str, list[str]]:
    """Per residual function of ``source`` (``eq_*``, ``*_residual``,
    ``*_residuals``), the builders of `POINT_BUILDERS` it calls itself, by
    name or attribute; a residual whose first parameter is ``pt`` reads
    them from the point, and applies none of `POINT_OPERATORS` either, but
    for the `OWN_MULTIPLIER` call in the branch of another reduction
    potential.  The residuals without a point may call ``vj_of``:
    ``metric_variation_residual`` and ``projector_commutator_residual``
    take the difference quotient of ``J`` on every backend, the torus
    included, where the point holds the closed form."""
    found = {}
    for fn in ast.parse(source).body:
        if not isinstance(fn, ast.FunctionDef) or not _is_residual(fn.name):
            continue
        takes_point = bool(fn.args.args) and fn.args.args[0].arg == "pt"
        if takes_point:
            barred = POINT_BUILDERS + POINT_OPERATORS
        else:
            barred = tuple(b for b in POINT_BUILDERS if b != "vj_of")
        exempt = _other_potential_branch(fn) if fn.name == OWN_MULTIPLIER[0] else set()
        called = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Call):
                f = n.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                if name in barred and not (name == OWN_MULTIPLIER[1] and id(n) in exempt):
                    called.add(name)
        found[fn.name] = sorted(called)
    return found


def point_reads(source: str) -> dict[str, set[str]]:
    """Per function of ``source``, the attributes it reads from ``pt``."""
    return {
        fn.name: {
            n.attr
            for n in ast.walk(fn)
            if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name) and n.value.id == "pt"
        }
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef)
    }


def test_residuals_read_the_ingredients_from_the_point():
    # the check itself sees a direct call, an attribute call and a builder
    # that a point residual reads from its point; an operator that a point
    # residual applies itself, in the Ricci branch too, and the exempt one
    snippet = (
        "def eq_a(pt):\n    return G_of(pt), pt.H\n"
        "def b_residual(fam, s):\n    return ops.trace_nabla(s, 1), vj_of(fam)\n"
        "def c_residuals(pt):\n    return pt.G, pt.trace_G\n"
        "def helper(pt):\n    return H_of(pt)\n"
        "def d_residual(pt, s):\n    return delta_G(pt.bd, pt.G, s)\n"
        "def connection_agreement_residual(pt, which):\n"
        "    if which == 'ricci':\n        u = u_apply(pt.bd, pt.G, pt.H, pt.s)\n"
        "    else:\n        u = u_apply(pt.bd, pt.G, pt.H, 2 * pt.s)\n"
        "    return u\n"
        "def e_residual(pt, which):\n"
        "    if which == 'ricci':\n        return pt.delta_s\n"
        "    return u_apply(pt.bd, pt.G, pt.H, pt.s)\n"
    )
    assert builder_calls(snippet) == {
        "eq_a": ["G_of"],
        "b_residual": ["trace_nabla"],
        "c_residuals": [],
        "d_residual": ["delta_G"],
        "connection_agreement_residual": ["u_apply"],
        "e_residual": ["u_apply"],
    }
    assert point_reads(snippet)["e_residual"] == {"delta_s", "bd", "G", "H", "s"}
    source = (ROOT / "src" / "hitchinlab" / "operators.py").read_text()
    found = builder_calls(source)
    assert {name: called for name, called in found.items() if called} == {}
    reads = point_reads(source)
    for name, deltas in POINT_DELTAS.items():
        assert deltas <= reads[name], name
    # the six residuals that build G(V) take the point
    point_residuals = {
        fn.name
        for fn in ast.parse(source).body
        if isinstance(fn, ast.FunctionDef)
        and _is_residual(fn.name)
        and fn.args.args
        and fn.args.args[0].arg == "pt"
    }
    assert point_residuals == {
        "eq_defining_residual",
        "eq_transfer_residual",
        "operator_pullback_residual",
        "connection_agreement_residual",
        "potential_variation_residual",
        "potential_oneform_residual",
    }
