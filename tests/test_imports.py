"""Every name a module under src/ imports is used in that module, every
local name a function under src/ binds is read in that function, every
parameter of a private function or method under src/ is read, every
top-level function and class under src/ is named outside its own
definition and, unless it is kept for the paper, outside the tests, no
module under src/ reads the process environment, keeps a process-wide
cache (a `functools` cache, or a module-level container a function
writes) other than the one allowed or touches an instance `__dict__`, no
module under src/ but the CLI runs a hyperdoctrine validator, none but
jsonio runs an order or map check, every name the benchmark imports
from cohext exists, and every module imports and the fixture theories
parse under the oldest Python that `requires-python` admits."""

import ast
import importlib
import os
import re
import shutil
import subprocess
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MODULES = sorted(SRC.rglob("*.py"))
BENCH = sorted((SRC.parent / "perfbench").glob("*.py"))
TESTS = sorted(Path(__file__).resolve().parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that the module never reads.  A
    name counts as read when it appears as a bare name anywhere in the
    module, as the root of an attribute chain, or in `__all__`."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
            and isinstance(node.value, (ast.List, ast.Tuple))
        ):
            used.update(e.value for e in node.value.elts if isinstance(e, ast.Constant))
    return [
        f"line {line}: {name}"
        for name, line in sorted(imported.items(), key=lambda kv: kv[1])
        if name not in used
    ]


SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def own_nodes(fn):
    """The nodes of a function body outside the functions and classes
    nested in it."""
    stack = list(fn.body)
    while stack:
        node = stack.pop()
        if not isinstance(node, SCOPES):
            yield node
            stack.extend(ast.iter_child_nodes(node))


def dead_locals(source: str) -> list[str]:
    """Local names a function body binds and never reads.  A name counts as
    read when the function, or a function nested in it, loads it.  Names
    starting with `_` and names declared global or nonlocal are exempt."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        read = set()
        for n in ast.walk(fn):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load):
                read.add(n.id)
            elif isinstance(n, (ast.Global, ast.Nonlocal)):
                read.update(n.names)
        bound = {}
        for n in own_nodes(fn):
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store):
                bound.setdefault(n.id, n.lineno)
        out += [
            f"line {line}: {name} in {fn.name}"
            for name, line in sorted(bound.items(), key=lambda kv: (kv[1], kv[0]))
            if not name.startswith("_") and name not in read
        ]
    return out


def test_src_modules_are_found():
    names = {p.name for p in MODULES}
    assert {"order.py", "cli.py", "models.py"} <= names


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


def test_unused_import_detector_on_samples():
    assert unused_imports("import os\nos.getcwd()\n") == []
    assert unused_imports("import os.path\nos.path.join('a')\n") == []
    assert unused_imports("from a import b as c\nc()\n") == []
    assert unused_imports("from __future__ import annotations\n") == []
    assert unused_imports("from a import b\n__all__ = ['b']\n") == []
    assert unused_imports("import os, sys\nsys.exit()\n") == ["line 1: os"]
    assert unused_imports("def f():\n    from x import y\n") == ["line 2: y"]
    assert unused_imports(
        "from itertools import combinations, permutations\npermutations([])\n"
    ) == ["line 1: combinations"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_function_reads_every_local_it_binds(path):
    assert dead_locals(path.read_text()) == []


def test_dead_local_detector_on_samples():
    assert dead_locals("def f():\n    x = 1\n    return x\n") == []
    assert dead_locals("def f():\n    x = 1\n") == ["line 2: x in f"]
    assert dead_locals("def f(p):\n    a, b = p\n    return a\n") == [
        "line 2: b in f"
    ]
    assert dead_locals("def f(p):\n    _, b = p\n    return b\n") == []
    assert dead_locals("def f(xs):\n    for i, x in xs:\n        print(x)\n") == [
        "line 2: i in f"
    ]
    assert dead_locals("def f(xs):\n    return [1 for x in xs]\n") == [
        "line 2: x in f"
    ]
    # read by a nested function; bound by a nested function, reported there
    assert dead_locals(
        "def f():\n    x = 1\n    def g():\n        y = x\n    return g\n"
    ) == ["line 4: y in g"]
    assert dead_locals(
        "def f():\n    n = 0\n    def g():\n        nonlocal n\n        n = 1\n"
        "    return g, n\n"
    ) == []
    assert dead_locals("x = 1\n") == []


def unread_parameters(source: str) -> list[str]:
    """Parameters of `_`-prefixed functions and methods that the body never
    reads; a public name keeps its signature for its callers, and dunder
    methods keep theirs for the protocol they implement.  Parameters
    starting with `_` are exempt.  A read by a nested function counts."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if not fn.name.startswith("_") or fn.name.endswith("__"):
            continue
        a = fn.args
        params = a.posonlyargs + a.args + a.kwonlyargs
        params += [p for p in (a.vararg, a.kwarg) if p is not None]
        read = {
            n.id
            for stmt in fn.body
            for n in ast.walk(stmt)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
        }
        out += [
            f"line {fn.lineno}: {p.arg} of {fn.name}"
            for p in params
            if not p.arg.startswith("_") and p.arg not in read
        ]
    return out


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_private_function_reads_every_parameter(path):
    assert unread_parameters(path.read_text()) == []


def test_unread_parameter_detector_on_samples():
    assert unread_parameters("def _f(x):\n    return x\n") == []
    assert unread_parameters("def _f(x, y):\n    return x\n") == ["line 1: y of _f"]
    # public functions and dunder methods keep their signatures
    assert unread_parameters("def f(x):\n    return 1\n") == []
    assert unread_parameters(
        "class A:\n    def __eq__(self, other):\n        return True\n"
    ) == []
    assert unread_parameters(
        "class A:\n    def _g(self, n):\n        return n\n"
    ) == ["line 2: self of _g"]
    assert unread_parameters("def _f(_x, *args, k=1, **kw):\n    return k\n") == [
        "line 1: args of _f", "line 1: kw of _f"
    ]
    # read by a nested function; a nested private function is checked too
    assert unread_parameters(
        "def _f(x):\n    def g():\n        return x\n    return g\n"
    ) == []
    assert unread_parameters(
        "def f(x):\n    def _g(y):\n        return x\n    return _g\n"
    ) == ["line 2: y of _g"]


def module_refs(source: str, module: str = "") -> set[tuple[str, str]]:
    """(module, name) for each name the source reads from a module: each
    `from module import name`, with relative imports resolved against the
    source's own dotted `module`, and each `module.name` read through an
    imported module under any alias."""
    tree = ast.parse(source)
    refs, aliases = set(), {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for a in node.names:
                root = a.name.split(".")[0]
                aliases[a.asname or root] = a.name if a.asname else root
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                package = ".".join(module.split(".")[: -node.level])
                base = ".".join(p for p in (package, node.module) if p)
            for a in node.names:
                refs.add((base, a.name))
                aliases[a.asname or a.name] = f"{base}.{a.name}"

    def dotted(node):
        if isinstance(node, ast.Name):
            return aliases.get(node.id)
        if isinstance(node, ast.Attribute):
            root = dotted(node.value)
            return root and f"{root}.{node.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (root := dotted(node.value)):
            refs.add((root, node.attr))
    return refs


def unnamed_definitions(modules: dict[str, str], readers=()) -> list[str]:
    """The top-level functions and classes of `modules` (dotted name ->
    source) that nothing names outside their own definition: not their own
    module by a bare name, and no other module or reader by an import or
    as an attribute of their module."""
    refs = set()
    for name, source in [*modules.items(), *(("", r) for r in readers)]:
        refs |= module_refs(source, name)
    out = []
    for name, source in modules.items():
        body = ast.parse(source).body
        for d in body:
            if not isinstance(d, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            own = {
                n.id for other in body if other is not d
                for n in ast.walk(other) if isinstance(n, ast.Name)
            }
            if d.name not in own and (name.removesuffix(".__init__"), d.name) not in refs:
                out.append(f"{name} line {d.lineno}: {d.name}")
    return out


def test_every_top_level_definition_is_named_outside_itself():
    modules = {
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text()
        for p in MODULES
    }
    readers = [p.read_text() for p in TESTS + BENCH]
    assert unnamed_definitions(modules, readers) == []


# The top-level definitions under src/ that only the suites name, each kept
# because it states a claim of the paper or a law its constructions rest on.
# A test helper goes to tests/helpers.py instead.
KEPT_FOR_THE_PAPER = {
    "cohext.canext.check_composition":
        "the composition laws of sigma and pi lifts (criterion 3)",
    "cohext.canext.esakia_check":
        "Esakia's lemma: delta lifts of join-preserving maps keep filtered meets",
    "cohext.cohcat.check_conservative":
        "a coherent functor is conservative (criterion 12)",
    "cohext.cohcat.check_heyting_functor":
        "a coherent functor is Heyting, the open-map side of criterion 12",
    "cohext.hyperdoctrine.validate_morphism":
        "the laws of a hyperdoctrine morphism",
    "cohext.hyperdoctrine.unit_morphism":
        "the unit P -> P^delta is a hyperdoctrine morphism",
    "cohext.hyperdoctrine.canext_morphism":
        "canonical extension acts on hyperdoctrine morphisms",
    "cohext.hyperdoctrine.compose_morphisms":
        "that action respects composition",
    "cohext.hyperdoctrine.fo_from_cohcat":
        "the first-order hyperdoctrine of a Heyting category",
    "cohext.hyperdoctrine.validate_fo":
        "the first-order laws: Heyting fibers, forall right adjoint to substitution",
    "cohext.hyperdoctrine.canext_fo":
        "canonicity of first-order hyperdoctrines (criterion 5)",
    "cohext.lattice.ideal_lattice":
        "the ideal lattice, dual to the filter lattice (criterion 2)",
    "cohext.lattice.lattice_failures":
        "the bounded-lattice laws, stated with a witness like poset_failures",
    "cohext.lattice.product_projections":
        "the product projections the square-transfer criterion lifts (criterion 4)",
    "cohext.lattice.meet_preserving_maps":
        "the maps the pi extension lifts",
    "cohext.lattice.birkhoff":
        "Birkhoff duality: a finite distributive lattice is the downsets of J(L)",
    "cohext.logic.models.types":
        "the types realized in a model family are prime filters",
    "cohext.predcat.universal_factorization":
        "every p-model factors through E_C (criterion 8)",
    "cohext.sites.filter_hyperdoctrine":
        "the filter hyperdoctrine whose predicate category is the filter category",
    "cohext.sites.localic_tot_for_lattice":
        "the localic topos of types of a lattice (criterion 9)",
}


def named_only_by_tests(modules: dict[str, str], readers=(), kept=()) -> list[str]:
    """The top-level definitions of `modules` that neither the modules nor
    the non-test `readers` name, unless `kept` lists them by dotted name;
    then each entry of `kept` that is named there or gone."""
    found = {}
    for line in unnamed_definitions(modules, readers):
        found[f"{line.split(' line ')[0]}.{line.rsplit(': ', 1)[1]}"] = line
    return [line for dotted, line in found.items() if dotted not in kept] + [
        f"{dotted}: kept but named outside the tests, or gone"
        for dotted in kept if dotted not in found
    ]


def test_no_definition_under_src_is_named_only_by_tests():
    modules = {
        ".".join(p.relative_to(SRC).with_suffix("").parts): p.read_text()
        for p in MODULES
    }
    readers = [p.read_text() for p in BENCH]
    assert named_only_by_tests(modules, readers, KEPT_FOR_THE_PAPER) == []


def test_test_only_definition_detector_on_samples():
    f = "def f():\n    return 1\n"
    assert named_only_by_tests({"p.m": f}) == ["p.m line 1: f"]
    # named by the program: another module, its own module, a benchmark
    assert named_only_by_tests({"p.m": f, "p.n": "from .m import f\n"}) == []
    assert named_only_by_tests({"p.m": f + "g = f\n"}) == []
    assert named_only_by_tests({"p.m": f}, ["from p.m import f\n"]) == []
    # kept by name, and a kept entry that the program names or that is gone
    assert named_only_by_tests({"p.m": f}, kept={"p.m.f": "a claim"}) == []
    assert named_only_by_tests({"p.m": f}, ["import p.m\np.m.f()\n"], ["p.m.f"]) == [
        "p.m.f: kept but named outside the tests, or gone"
    ]
    assert named_only_by_tests({"p.m": "x = 1\n"}, kept=["p.m.f"]) == [
        "p.m.f: kept but named outside the tests, or gone"
    ]


def test_unnamed_definition_detector_on_samples():
    f = "def f():\n    return 1\n"
    assert unnamed_definitions({"m": f}) == ["m line 1: f"]
    # a recursive call is inside the definition; a call from g names f
    assert unnamed_definitions({"m": "def f():\n    return f()\n"}) == ["m line 1: f"]
    assert unnamed_definitions({"m": f + "def g():\n    return f()\n"}) == [
        "m line 3: g"
    ]
    assert unnamed_definitions({"m": "class A:\n    pass\nA()\n"}) == []
    # imports, absolute and relative, and attributes of an imported module
    assert unnamed_definitions({"p.m": f, "p.n": "from .m import f\n"}) == []
    assert unnamed_definitions({"p.m": f, "p.q.n": "from ..m import f\n"}) == []
    assert unnamed_definitions({"p.m": f}, ["from p.m import f as g\n"]) == []
    for reader in ("import p.m\np.m.f\n", "import p.m as k\nk.f\n",
                   "from p import m\nm.f()\n"):
        assert unnamed_definitions({"p.m": f}, [reader]) == []
    # the same name elsewhere does not name f
    assert unnamed_definitions({"a": f, "b": f + "f()\n"}) == ["a line 1: f"]
    assert unnamed_definitions({"p.m": f}, ["x.f()\n", "from p.n import f\n"]) == [
        "p.m line 1: f"
    ]


def module_attribute_uses(source: str, module: str, names) -> list[str]:
    """Each `module.name`, for a name in `names`, that the source names, as
    an attribute of the module under any alias or imported by name."""
    tree = ast.parse(source)
    aliases = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.Import)
        for alias in node.names
        if alias.name == module
    }
    uses = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and node.attr in names
            and isinstance(node.value, ast.Name)
            and node.value.id in aliases
        ):
            uses.append((node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            uses += [(node.lineno, a.name) for a in node.names if a.name in names]
    return [f"line {line}: {module}.{name}" for line, name in sorted(uses)]


def environment_uses(source: str) -> list[str]:
    return module_attribute_uses(source, "os", ("environ", "getenv"))


CONTAINERS = ("dict", "list", "set", "defaultdict", "OrderedDict", "Counter", "deque")
MUTATORS = (
    "add", "append", "appendleft", "clear", "discard", "extend", "insert", "pop",
    "popitem", "remove", "setdefault", "update",
)


def module_containers_written(source: str) -> list[str]:
    """Each write, inside a function, to a container bound at module level:
    an item assignment or deletion, or a call of a mutating method.  A
    function that binds the name itself writes its own local instead."""
    tree = ast.parse(source)
    containers = set()
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else (
            [node.target] if isinstance(node, ast.AnnAssign) and node.value else []
        )
        value = getattr(node, "value", None)
        if isinstance(value, (ast.Dict, ast.List, ast.Set)) or (
            isinstance(value, ast.Call)
            and isinstance(value.func, ast.Name)
            and value.func.id in CONTAINERS
        ):
            containers.update(t.id for t in targets if isinstance(t, ast.Name))
    writes = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        local = {
            n.id for n in own_nodes(fn)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
        }
        for n in own_nodes(fn):
            if isinstance(n, ast.Subscript) and isinstance(n.ctx, (ast.Store, ast.Del)):
                target = n.value
            elif isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute) and (
                n.func.attr in MUTATORS
            ):
                target = n.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in containers - local:
                writes.add((n.lineno, target.id))
    return [f"line {line}: {name}" for line, name in sorted(writes)]


def process_cache_uses(source: str) -> list[str]:
    """Process-wide memoisation keeps every argument alive; per-instance
    memoisation is `order.cached` and `order.cached_method`.  Both
    `functools` caches and module-level containers that a function writes
    count."""
    return module_attribute_uses(
        source, "functools", ("lru_cache", "cache")
    ) + module_containers_written(source)


# The one process-wide cache kept on purpose; canext.py says why.
ALLOWED_PROCESS_CACHES = {"cohext/canext.py": "_EXTENSION_CACHE"}


def instance_dict_uses(source: str) -> list[str]:
    """`functools.cached_property` and every `.__dict__` read or write: on
    CPython 3.11 a materialized instance `__dict__` slows every later
    attribute load on the object, so derived data is kept by `order.cached`."""
    lines = sorted(
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Attribute) and node.attr == "__dict__"
    )
    return module_attribute_uses(source, "functools", ("cached_property",)) + [
        f"line {line}: .__dict__" for line in lines
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_reads_no_environment(path):
    assert environment_uses(path.read_text()) == []


def test_environment_use_detector_on_samples():
    assert environment_uses("import os\nos.getcwd()\n") == []
    assert environment_uses("environ = {}\nenviron.get('A')\n") == []
    assert environment_uses("import os\nos.environ['A'] = '1'\n") == [
        "line 2: os.environ"
    ]
    assert environment_uses("import os as o\nx = o.getenv('A')\n") == [
        "line 2: os.getenv"
    ]
    assert environment_uses("from os import getenv as g, path\n") == [
        "line 1: os.getenv"
    ]
    assert environment_uses(
        "import os\ndef f():\n    return os.environ.get('B', os.getenv('A'))\n"
    ) == ["line 3: os.environ", "line 3: os.getenv"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_keeps_no_process_wide_cache(path):
    allowed = ALLOWED_PROCESS_CACHES.get(path.relative_to(SRC).as_posix())
    uses = process_cache_uses(path.read_text())
    assert [u for u in uses if u.split(": ")[1] != allowed] == []


def test_the_allowed_process_wide_cache_is_still_there():
    for module, name in ALLOWED_PROCESS_CACHES.items():
        uses = process_cache_uses((SRC / module).read_text())
        assert [u.split(": ")[1] for u in uses] == [name]


def test_process_cache_detector_on_samples():
    assert process_cache_uses("from functools import reduce, wraps\n") == []
    assert process_cache_uses("from functools import cached_property\n") == []
    assert process_cache_uses("cache = {}\ncache.get(1)\n") == []
    assert process_cache_uses("from functools import lru_cache\n") == [
        "line 1: functools.lru_cache"
    ]
    assert process_cache_uses("from functools import cache as c, wraps\n") == [
        "line 1: functools.cache"
    ]
    assert process_cache_uses(
        "import functools as ft\n@ft.lru_cache(maxsize=None)\ndef f(n):\n"
        "    return n\n@ft.cache\ndef g(n):\n    return n\n"
    ) == ["line 2: functools.lru_cache", "line 5: functools.cache"]



def test_module_container_write_detector_on_samples():
    # read only, or written at module level: not a cache
    assert module_containers_written("TABLE = {1: 2}\ndef f(k):\n    return TABLE[k]\n") == []
    assert module_containers_written("seen = set()\nseen.add(1)\n") == []
    # a function's own container, even one named like a module-level one
    assert module_containers_written("def f():\n    c = {}\n    c[1] = 2\n") == []
    assert module_containers_written(
        "c = {}\ndef f():\n    c = {}\n    c[1] = 2\n    return c\n"
    ) == []
    # item assignment and deletion, and mutating methods
    assert module_containers_written("c = {}\ndef f(k):\n    c[k] = 1\n") == ["line 3: c"]
    assert module_containers_written("c: dict = {}\ndef f(k):\n    del c[k]\n") == ["line 3: c"]
    assert module_containers_written(
        "seen = set()\nmemo = dict()\ndef f(x):\n    seen.add(x)\n"
        "    return memo.setdefault(x, [])\n"
    ) == ["line 4: seen", "line 5: memo"]
    assert module_containers_written(
        "from collections import defaultdict\nd = defaultdict(list)\n"
        "class A:\n    def m(self, k):\n        d.update({k: 1})\n"
    ) == ["line 5: d"]
    assert process_cache_uses("cache = {}\ndef f(k):\n    cache[k] = 1\n") == ["line 3: cache"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_module_keeps_derived_data_out_of_the_instance_dict(path):
    assert instance_dict_uses(path.read_text()) == []


def test_instance_dict_detector_on_samples():
    assert instance_dict_uses("from functools import reduce, wraps\n") == []
    assert instance_dict_uses("d = {}\nd['__dict__'] = 1\nvars\n") == []
    assert instance_dict_uses("from functools import cached_property as cp\n") == [
        "line 1: functools.cached_property"
    ]
    assert instance_dict_uses(
        "import functools\nclass A:\n    @functools.cached_property\n"
        "    def x(self):\n        return 1\n"
    ) == ["line 3: functools.cached_property"]
    assert instance_dict_uses(
        "def f(o):\n    o.__dict__['x'] = 1\n    return type(o).__dict__\n"
    ) == ["line 2: .__dict__", "line 3: .__dict__"]


VALIDATORS = ("validate", "validate_fo", "validate_morphism")
ORDER_CHECKS = ("poset_failures", "lattice_failures", "map_failures")


def validator_uses(source: str, validators=VALIDATORS) -> list[str]:
    """Each read of a validator named in `validators` (by default the
    hyperdoctrine ones), by bare name or as an attribute (a call, or the
    function passed on), with the top-level function or class it is read
    in."""
    uses = []
    for node in ast.parse(source).body:
        owner = getattr(node, "name", "<module>")
        for n in ast.walk(node):
            name = (
                n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)
                else n.attr if isinstance(n, ast.Attribute) else None
            )
            if name in validators:
                uses.append((n.lineno, f"{owner} reads {name}"))
    return [f"line {line}: {use}" for line, use in sorted(uses)]


def test_hyperdoctrines_are_validated_only_where_a_file_is_read():
    """Every hyperdoctrine the program builds is one by theorem, so only
    the CLI, which reads them from files, runs a validator; `validate_fo`
    extends `validate`."""
    uses = [
        f"{path.relative_to(SRC).as_posix()} {use.split(': ')[1]}"
        for path in MODULES
        if path.name != "cli.py"
        for use in validator_uses(path.read_text())
    ]
    assert uses == ["cohext/hyperdoctrine.py validate_fo reads validate"]
    assert validator_uses((SRC / "cohext" / "cli.py").read_text())


def test_delta_lifts_are_taken_only_by_the_esakia_check():
    """A map that preserves finite joins has sigma = pi = delta, so every
    program lift of one is its sigma lift; the checked form, which
    computes both and compares them, is read only where Esakia's lemma is
    stated for delta."""
    uses = [
        f"{path.relative_to(SRC).as_posix()} {use.split(': ')[1]}"
        for path in MODULES
        for use in validator_uses(path.read_text(), ("delta_extension",))
    ]
    assert uses == ["cohext/canext.py esakia_check reads delta_extension"]


def test_validator_use_detector_on_samples():
    assert validator_uses("def validate(P):\n    return P\nvalidated = 1\n") == []
    assert validator_uses("from .hyperdoctrine import validate_fo\n") == []
    assert validator_uses(
        "def f(P):\n    return validate(P).passed\n"
        "class A:\n    def m(self, P):\n        return h.validate_morphism(P)\n"
    ) == ["line 2: f reads validate", "line 5: A reads validate_morphism"]
    assert validator_uses("run(validate_fo, P)\n") == [
        "line 1: <module> reads validate_fo"
    ]


def test_orders_and_maps_are_validated_only_where_a_file_is_read():
    """Every poset, lattice and map the program builds is one by theorem,
    so only jsonio, which reads them from files, runs the order and map
    checks; `lattice_failures` extends `poset_failures`."""
    uses = [
        f"{path.relative_to(SRC).as_posix()} {use.split(': ')[1]}"
        for path in MODULES
        if path.name != "jsonio.py"
        for use in validator_uses(path.read_text(), ORDER_CHECKS)
    ]
    assert uses == ["cohext/lattice.py lattice_failures reads poset_failures"]
    assert validator_uses((SRC / "cohext" / "jsonio.py").read_text(), ORDER_CHECKS)


def test_order_check_use_detector_on_samples():
    assert validator_uses("from .order import poset_failures\n", ORDER_CHECKS) == []
    assert validator_uses("def f(P):\n    return validate(P)\n", ORDER_CHECKS) == []
    assert validator_uses("next(map_failures(f))\n") == []
    assert validator_uses(
        "def f(L):\n    return next(lattice.lattice_failures(L), None)\n"
        "class A:\n    def m(self, h):\n        return list(map_failures(h))\n"
        "checks = [poset_failures]\n",
        ORDER_CHECKS,
    ) == [
        "line 2: f reads lattice_failures",
        "line 5: A reads map_failures",
        "line 6: <module> reads poset_failures",
    ]


def cohext_imports(source: str) -> list[tuple[str, str, int]]:
    """(module, name, line) for each `from cohext... import name` anywhere
    in the source, function-level imports included."""
    return [
        (node.module, alias.name, node.lineno)
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        and node.level == 0
        and (node.module == "cohext" or node.module.startswith("cohext."))
        for alias in node.names
    ]


def test_benchmark_modules_are_found():
    assert {"run.py", "site_sweep.py", "model_sweep.py"} <= {p.name for p in BENCH}


@pytest.mark.parametrize("path", BENCH, ids=lambda p: p.name)
def test_benchmark_imports_from_cohext_resolve(path):
    missing = [
        f"line {line}: {module}.{name}"
        for module, name, line in cohext_imports(path.read_text())
        if not hasattr(importlib.import_module(module), name)
    ]
    assert missing == []


def test_cohext_import_finder_on_samples():
    assert cohext_imports("import cohext\nfrom os import path\n") == []
    assert cohext_imports(
        "from cohext.sites import a, b as c\n"
        "def f():\n    from cohext import d\n"
    ) == [("cohext.sites", "a", 1), ("cohext.sites", "b", 1), ("cohext", "d", 3)]
    assert cohext_imports("from . import cohext\n") == []


PYPROJECT = SRC.parent / "pyproject.toml"

# Imports every cohext module, parses and chases each fixture theory, which
# compiles and runs its formulas' closures, and reads two fixture
# categories and validates their subobject hyperdoctrines, which runs the
# lattice reader and builds the pullback squares.
IMPORT_AND_PARSE = """
import importlib, pkgutil
import cohext
from cohext.fixtures import FIXTURE_DIR
from cohext.hyperdoctrine import sub_hyperdoctrine, validate
from cohext.jsonio import load_category
from cohext.logic.chase import chase
from cohext.logic.parser import parse_theory
for m in pkgutil.walk_packages(cohext.__path__, "cohext."):
    importlib.import_module(m.name)
theories = sorted(FIXTURE_DIR.glob("*.chr"))
assert len(theories) == 3, theories
for path in theories:
    res = chase(parse_theory(path.read_text()), max_fresh=6, max_rounds=40)
    assert res.status == "model" and res.model.satisfies_theory(), path
for name in ("diamond.latcat.json", "two_objects.cat.json"):
    S = sub_hyperdoctrine(load_category(FIXTURE_DIR / name))
    report = validate(S)
    assert report.passed and S.limits.squares, (name, report.failures())
"""


def oldest_python() -> str:
    """The "3.x" that `requires-python` names as its floor."""
    spec = re.search(r'^requires-python = ">=(3\.\d+)"$', PYPROJECT.read_text(), re.M)
    return spec.group(1)


def interpreter(version: str) -> str | None:
    """A `python<version>` that runs and reports that version: the one on
    PATH (a pyenv shim that exits with an error counts as absent), else one
    installed under `$PYENV_ROOT/versions/<version>.*`."""
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv"))
    candidates = [shutil.which(f"python{version}")]
    candidates += sorted(root.glob(f"versions/{version}.*/bin/python{version}"))
    check = f"import sys; assert '%d.%d' % sys.version_info[:2] == '{version}'"
    for exe in filter(None, candidates):
        ran = subprocess.run([exe, "-c", check], capture_output=True, timeout=60)
        if ran.returncode == 0:
            return str(exe)
    return None


def test_modules_import_and_theories_parse_on_the_oldest_python():
    version = oldest_python()
    exe = interpreter(version)
    if exe is None:
        pytest.skip(f"no Python {version} interpreter runs here")
    ran = subprocess.run(
        [exe, "-c", IMPORT_AND_PARSE], capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert ran.returncode == 0, ran.stderr
