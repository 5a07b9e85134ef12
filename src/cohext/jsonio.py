"""JSON formats for lattices, lattice homs, categories, hyperdoctrines and
models, plus DOT export.  Validation is strict: malformed structure raises
with the offending key, and orders and maps, the only ones not built by
theorem, are refused with their first `poset_failures` or `map_failures`."""

from __future__ import annotations

import json
from pathlib import Path

from .cohcat import CohCategory, ConcreteCohCategory, LatticeCategory
from .fincat import FinCategory
from .hyperdoctrine import BaseLimits, CoherentHyperdoctrine
from .lattice import FinLattice, LatticeHom, MonotoneMap, map_failures
from .order import FinPoset, poset_failures


class FormatError(ValueError):
    pass


def checked(x, failures):
    """x, refused with the first witness that `failures(x)` yields."""
    w = next(failures(x), None)
    if w is not None:
        raise FormatError(w)
    return x


# -- lattices -------------------------------------------------------------------


def lattice_to_json(L: FinLattice) -> dict:
    return {
        "elements": list(L.elements),
        "leq": sorted([a, b] for a, b in L.poset.pairs),
    }


def lattice_from_json(data: dict) -> FinLattice:
    if not isinstance(data, dict) or "elements" not in data or "leq" not in data:
        raise FormatError("lattice JSON needs 'elements' and 'leq'")
    elements = data["elements"]
    if not _is_str_list(elements):
        raise FormatError("lattice 'elements' must be a list of strings")
    pairs, known = [], set(elements)
    for p in _lattice_entries(data, "leq"):
        if not (_is_str_list(p) and len(p) == 2):
            raise FormatError(f"bad leq pair {p!r}")
        if not set(p) <= known:
            raise FormatError(f"relation pair ({p[0]},{p[1]}) uses unknown element")
        pairs.append((p[0], p[1]))
    L = FinLattice.from_poset(checked(FinPoset.from_pairs(elements, pairs), poset_failures))
    for key, op, bound in (("meet", L.meet, "glb"), ("join", L.join, "lub")):
        for t in _lattice_entries(data, key):
            if not (_is_str_list(t) and len(t) == 3 and set(t) <= set(elements)):
                raise FormatError(f"bad {key} entry {t!r}: not a triple of elements")
            a, b, c = t
            if op(a, b) != c:
                raise FormatError(f"declared {key}({a},{b})={c} is not the {bound}")
    return L


def _is_str_list(x) -> bool:
    return isinstance(x, list) and all(isinstance(e, str) for e in x)


def _lattice_entries(data: dict, key: str) -> list:
    entries = data.get(key, [])
    if not isinstance(entries, list):
        raise FormatError(f"lattice '{key}' must be a list")
    return entries


def load_lattice(path) -> FinLattice:
    return lattice_from_json(json.loads(Path(path).read_text()))


def hom_from_json(data: dict, source: FinLattice, target: FinLattice) -> LatticeHom:
    """The hom source -> target given as an {element: image} object."""
    if not isinstance(data, dict):
        raise FormatError("hom JSON must be an object mapping elements to elements")
    return checked(LatticeHom(source, target, data), map_failures)


# -- categories -----------------------------------------------------------------


def category_from_json(data: dict) -> CohCategory:
    if not isinstance(data, dict):
        raise FormatError("category JSON must be an object with a 'kind'")
    kind = data.get("kind")
    if kind == "lattice":
        if "lattice" not in data:
            raise FormatError("lattice category needs a 'lattice' key")
        return LatticeCategory(lattice_from_json(data["lattice"]))
    if kind == "concrete":
        objects = data.get("objects")
        if not isinstance(objects, dict):
            raise FormatError("concrete category needs an 'objects' mapping")
        seeds = []
        for name, elems in objects.items():
            if not (isinstance(elems, list) and all(isinstance(e, str) for e in elems)):
                raise FormatError(f"object {name} must be a list of strings")
            seeds.append(frozenset(elems))
        return ConcreteCohCategory(seeds)
    raise FormatError("category 'kind' must be 'lattice' or 'concrete'")


def load_category(path) -> CohCategory:
    return category_from_json(json.loads(Path(path).read_text()))


def category_to_json(C: CohCategory) -> dict:
    if isinstance(C, LatticeCategory):
        return {"kind": "lattice", "lattice": lattice_to_json(C.lattice)}
    if isinstance(C, ConcreteCohCategory):
        return {
            "kind": "concrete",
            "objects": {name: sorted(s) for name, s in C.of_name.items()},
        }
    raise FormatError(f"cannot serialize {type(C).__name__}")


# -- hyperdoctrines ----------------------------------------------------------------
#
# Either derived ("subobjects" of a category file) or explicit tables over
# an inline base; explicit tables exist so that deliberately broken inputs
# reach the validator.


def located(where: str, build, *args):
    """build(*args), with an error in the data prefixed by the key at fault."""
    try:
        return build(*args)
    except ValueError as e:
        raise FormatError(f"{where}: {e}") from e


def hyperdoctrine_from_json(data: dict, base_dir: Path | None = None) -> CoherentHyperdoctrine:
    from .hyperdoctrine import sub_hyperdoctrine

    if not isinstance(data, dict):
        raise FormatError("hyperdoctrine JSON must be an object")

    def category(key):
        """The category data[key] names, a file or inline; an error in its
        data names the file or the key."""
        ref = data[key]
        if isinstance(ref, str):
            path = (base_dir or Path(".")) / ref
            return located(str(path), load_category, path)
        return located(f"'{key}'", category_from_json, ref)

    if "subobjects_of" in data:
        return sub_hyperdoctrine(category("subobjects_of"))
    if "base" not in data or "fibers" not in data:
        raise FormatError("hyperdoctrine JSON needs 'subobjects_of' or explicit tables")
    C = category("base")
    if not isinstance(data["fibers"], dict):
        raise FormatError("'fibers' must map objects to lattices")
    fibers = {}
    for A, ref in data["fibers"].items():
        fibers[A] = located(
            f"fiber at {A}",
            load_lattice if isinstance(ref, str) else lattice_from_json,
            (base_dir or Path(".")) / ref if isinstance(ref, str) else ref,
        )

    def tables(key, make):
        """make(fiber at src, fiber at tgt, table) per morphism in data[key]."""
        given = data.get(key)
        if not isinstance(given, dict):
            raise FormatError(f"explicit hyperdoctrine needs a '{key}' mapping")
        out = {}
        for f, table in given.items():
            if f not in C.cat.morphisms:
                raise FormatError(f"'{key}' names unknown morphism {f}")
            m = C.cat.morphisms[f]
            if m.src not in fibers or m.tgt not in fibers:
                raise FormatError(f"'{key}' at {f}: no fiber at {m.src} or {m.tgt}")
            if not isinstance(table, dict):
                raise FormatError(f"'{key}' at {f} must map elements to elements")
            out[f] = located(f"'{key}' at {f}", make, fibers[m.src], fibers[m.tgt], table)
        return out

    subst = tables("subst", lambda FA, FB, t: hom_from_json(t, FB, FA))
    exists = tables("exists", lambda FA, FB, t: checked(MonotoneMap(FA, FB, t), map_failures))
    return CoherentHyperdoctrine(
        C.cat, fibers, subst, exists, BaseLimits.from_cohcat(C)
    )


# -- models ------------------------------------------------------------------------


def model_to_json(M) -> dict:
    return {
        "sorts": {s: list(xs) for s, xs in M.sorts.items()},
        "functions": {
            f: [[list(k), v] for k, v in sorted(t.items())]
            for f, t in M.funcs.items()
        },
        "relations": {r: sorted(map(list, rows)) for r, rows in M.rels.items()},
    }


def model_from_json(T, data: dict):
    """A (possibly partial) model of T.  Its sorts must be T's, and each
    function or relation must be T's, with rows of elements of the right
    carriers; a function or relation left out gets an empty table."""
    from .logic.chase import FinModel

    sig = T.signature
    sorts = data.get("sorts") if isinstance(data, dict) else None
    if not isinstance(sorts, dict) or set(sorts) != set(sig.sorts):
        raise FormatError(f"model needs 'sorts' with exactly the sorts {sig.sorts}")
    if not all(
        isinstance(xs, list) and all(isinstance(x, str) for x in xs)
        for xs in sorts.values()
    ):
        raise FormatError("model carriers must be lists of strings")

    def table(key, declared):
        given = data.get(key, {})
        if not isinstance(given, dict) or any(
            name not in declared or not isinstance(rows, list)
            for name, rows in given.items()
        ):
            raise FormatError(f"'{key}' must map names in {list(declared)} to lists")
        return {**given, **{name: [] for name in declared if name not in given}}

    def row(name, arg_sorts, cells):
        if not isinstance(cells, list) or len(cells) != len(arg_sorts) or any(
            x not in sorts[s] for s, x in zip(arg_sorts, cells)
        ):
            raise FormatError(f"{name}: {cells!r} is not a row of sorts {arg_sorts}")
        return tuple(cells)

    funcs = {}
    for f, entries in table("functions", sig.funcs).items():
        args, res = sig.funcs[f]
        if not all(isinstance(e, list) and len(e) == 2 for e in entries):
            raise FormatError(f"function {f}: entries must be [arguments, value]")
        funcs[f] = {row(f, args, k): row(f, (res,), [v])[0] for k, v in entries}
    rels = {
        r: frozenset(row(r, sig.rels[r], cells) for cells in rows)
        for r, rows in table("relations", sig.rels).items()
    }
    return FinModel(T, {s: tuple(xs) for s, xs in sorts.items()}, funcs, rels)


# -- DOT export ---------------------------------------------------------------------


def category_to_dot(cat: FinCategory, name: str = "C") -> str:
    lines = [f"digraph {json.dumps(name)} {{"]
    for A in cat.objects:
        lines.append(f"  {json.dumps(A)};")
    for m in sorted(cat.morphisms.values(), key=lambda m: m.name):
        if m.name == cat.identities.get(m.src):
            continue
        lines.append(
            f"  {json.dumps(m.src)} -> {json.dumps(m.tgt)} "
            f"[label={json.dumps(m.name)}];"
        )
    lines.append("}")
    return "\n".join(lines) + "\n"
