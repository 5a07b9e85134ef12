"""Canonical extension of finite distributive lattices and of monotone maps.

The extension of L is materialized as the downset lattice of the poset of
prime filters of L under reverse inclusion, with the embedding
a |-> {rho | a in rho}.  Even though the embedding is an isomorphism for
finite L, the construction mirrors the general definitions: denseness and
the two-stage sigma/pi lifting formulas are computed literally (over filter
and ideal elements tabulated once per extension), and compactness is
decided over the meets and joins of all subsets, which is equivalent to
quantifying over all subset pairs.  So the code paths match the
infinite-case definitions and the finite collapse is a theorem the test
suite proves rather than a shortcut.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .lattice import (
    FinLattice,
    LatticeError,
    LatticeHom,
    MonotoneMap,
    downset_lattice,
    prime_filter_poset,
    prime_filters,
    require_distributive,
)
from .order import set_name


class PreservationError(LatticeError):
    """Map preserves neither finite joins nor finite meets."""


class FilteredError(LatticeError):
    """Subset is not down-directed."""


@dataclass(frozen=True, eq=False)
class CanonicalExtension:
    """An embedding of a lattice into a complete (here: finite) lattice.

    `canonical_extension` produces the dense and compact one; arbitrary
    embeddings can be wrapped too, so the denseness/compactness predicates
    stay honest checks instead of constructor postconditions.
    """

    base: FinLattice
    ext: FinLattice
    embed: dict[str, str]

    def __post_init__(self):
        m = MonotoneMap(self.base, self.ext, self.embed)
        if not m.is_lattice_hom():
            raise LatticeError("embedding is not a lattice homomorphism")
        if len(set(self.embed.values())) != len(self.base.elements):
            raise LatticeError("embedding is not injective")

    def e(self, a: str) -> str:
        return self.embed[a]

    # Derived tables, computed once per extension: cached_property writes
    # to the instance __dict__, which a frozen (non-slots) dataclass allows.

    @cached_property
    def image(self) -> frozenset[str]:
        return frozenset(self.embed.values())

    @cached_property
    def filter_of(self) -> dict[str, tuple[str, ...]]:
        """For each x in ext, the base elements whose image lies above x."""
        ext, e = self.ext, self.embed
        return {
            x: tuple(a for a in self.base.elements if ext.leq(x, e[a]))
            for x in ext.elements
        }

    @cached_property
    def ideal_of(self) -> dict[str, tuple[str, ...]]:
        """For each y in ext, the base elements whose image lies below y."""
        ext, e = self.ext, self.embed
        return {
            y: tuple(a for a in self.base.elements if ext.leq(e[a], y))
            for y in ext.elements
        }

    @cached_property
    def filt_elements(self) -> frozenset[str]:
        """Meet closure of the embedded image in ext."""
        ext, e = self.ext, self.embed
        return frozenset(
            x
            for x in ext.elements
            if x == ext.meet_all(e[a] for a in self.filter_of[x])
        )

    @cached_property
    def ideal_elements(self) -> frozenset[str]:
        """Join closure of the embedded image in ext."""
        ext, e = self.ext, self.embed
        return frozenset(
            y
            for y in ext.elements
            if y == ext.join_all(e[a] for a in self.ideal_of[y])
        )

    @cached_property
    def filt_below(self) -> dict[str, tuple[str, ...]]:
        """For each u in ext, the filter elements below u, in ext order."""
        ext, filt = self.ext, self.filt_elements
        below = [x for x in ext.elements if x in filt]
        return {u: tuple(x for x in below if ext.leq(x, u)) for u in ext.elements}

    @cached_property
    def ideal_above(self) -> dict[str, tuple[str, ...]]:
        """For each u in ext, the ideal elements above u, in ext order."""
        ext, idl = self.ext, self.ideal_elements
        above = [y for y in ext.elements if y in idl]
        return {u: tuple(y for y in above if ext.leq(u, y)) for u in ext.elements}

    def is_iso(self) -> bool:
        return len(self.image) == len(self.ext.elements)

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalExtension)
            and self.base == other.base
            and self.ext == other.ext
            and self.embed == other.embed
        )

    def __hash__(self):
        return hash((self.base, self.ext, tuple(sorted(self.embed.items()))))


_EXTENSION_CACHE: dict = {}


def canonical_extension(L: FinLattice) -> CanonicalExtension:
    """Downsets of (PrFl(L), reverse inclusion), embedding a to its
    prime-filter spectrum.  Cached; extensions are immutable."""
    cached = _EXTENSION_CACHE.get(L)
    if cached is not None:
        return cached
    require_distributive(L)
    pf = prime_filters(L)
    ext = downset_lattice(prime_filter_poset(L))
    embed = {
        a: ext.encode[frozenset(set_name(s) for s in pf if a in s)]
        for a in L.elements
    }
    ce = CanonicalExtension(L, ext, embed)
    _EXTENSION_CACHE[L] = ce
    return ce


def check_dense(ce: CanonicalExtension) -> bool:
    """Every element of ext is a join of filter elements and a meet of
    ideal elements (equivalently: a join of meets and meet of joins of
    embedded elements)."""
    ext = ce.ext
    return all(
        ext.join_all(ce.filt_below[u]) == u and ext.meet_all(ce.ideal_above[u]) == u
        for u in ext.elements
    )


def check_compact(ce: CanonicalExtension, budget: int = 1 << 22) -> bool:
    """For all F, I subsets of the base with /\\ e[F] <= \\/ e[I] in ext,
    some finite F' <= F, I' <= I satisfy /\\ F' <= \\/ I' in the base.

    At finite scale the whole subsets are the optimal finite witnesses, so
    the check compares the two inequalities directly.  They depend on a
    subset pair (F, I) only through the values (/\\ e[F], /\\ F) and
    (\\/ e[I], \\/ I), so quantifying over the distinct meet and join
    values of all subsets is equivalent to quantifying over all subset
    pairs.  Each subset's meet and join come from the subset without its
    highest element.
    """
    base, ext = ce.base, ce.ext
    elems = base.elements
    n = len(elems)
    if (1 << (2 * n)) > budget:
        raise LatticeError(f"compactness check over {n} elements exceeds budget")
    meets = [(ext.top, base.top)]
    joins = [(ext.bottom, base.bottom)]
    for mask in range(1, 1 << n):
        i = mask.bit_length() - 1
        a, rest = elems[i], mask ^ (1 << i)
        e_a = ce.embed[a]
        m_ext, m_base = meets[rest]
        j_ext, j_base = joins[rest]
        meets.append((ext.meet(m_ext, e_a), base.meet(m_base, a)))
        joins.append((ext.join(j_ext, e_a), base.join(j_base, a)))
    joins = set(joins)
    return all(
        base.leq(m_base, j_base)
        for m_ext, m_base in set(meets)
        for j_ext, j_base in joins
        if ext.leq(m_ext, j_ext)
    )


# -- sigma / pi / delta extensions --------------------------------------------


@dataclass(frozen=True, eq=False)
class ExtendedMap:
    """A lifting of a monotone base map to the canonical extensions."""

    kind: str  # "sigma" | "pi" | "delta"
    base_map: MonotoneMap
    source: CanonicalExtension
    target: CanonicalExtension
    map: MonotoneMap  # source.ext -> target.ext

    def __call__(self, u: str) -> str:
        return self.map(u)

    def restricts_to_base(self) -> bool:
        return all(
            self.map(self.source.e(a)) == self.target.e(self.base_map(a))
            for a in self.base_map.source.elements
        )


def sigma_extension(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> ExtendedMap:
    """Two-stage formula: on a filter element x, the meet of f over the
    filter of x; in general, the join over filter elements below."""
    _check_lift_typing(f, ce_s, ce_t)
    ext_s, ext_t = ce_s.ext, ce_t.ext
    on_filt = {
        x: ext_t.meet_all(ce_t.e(f(a)) for a in ce_s.filter_of[x])
        for x in ce_s.filt_elements
    }
    table = {
        u: ext_t.join_all(on_filt[x] for x in ce_s.filt_below[u])
        for u in ext_s.elements
    }
    return ExtendedMap("sigma", f, ce_s, ce_t, MonotoneMap(ext_s, ext_t, table))


def pi_extension(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> ExtendedMap:
    _check_lift_typing(f, ce_s, ce_t)
    ext_s, ext_t = ce_s.ext, ce_t.ext
    on_idl = {
        y: ext_t.join_all(ce_t.e(f(a)) for a in ce_s.ideal_of[y])
        for y in ce_s.ideal_elements
    }
    table = {
        u: ext_t.meet_all(on_idl[y] for y in ce_s.ideal_above[u])
        for u in ext_s.elements
    }
    return ExtendedMap("pi", f, ce_s, ce_t, MonotoneMap(ext_s, ext_t, table))


def delta_extension(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> ExtendedMap:
    """The common value of sigma and pi for maps preserving finite joins or
    finite meets."""
    if not (f.preserves_finite_joins() or f.preserves_finite_meets()):
        raise PreservationError(
            "map preserves neither finite joins nor finite meets"
        )
    sig = sigma_extension(f, ce_s, ce_t)
    pi = pi_extension(f, ce_s, ce_t)
    if sig.map.mapping != pi.map.mapping:
        raise LatticeError("sigma and pi extensions disagree on a preserving map")
    return ExtendedMap("delta", f, ce_s, ce_t, sig.map)


def _check_lift_typing(f, ce_s, ce_t):
    if f.source != ce_s.base or f.target != ce_t.base:
        raise LatticeError("map endpoints do not match the given extensions")


def extend_hom(h: LatticeHom, ce_s: CanonicalExtension) -> LatticeHom:
    """The unique complete homomorphism ext -> K agreeing with h on the
    embedded base.  K is the codomain of h itself, not its extension."""
    K = h.target
    on_filt = {
        x: K.meet_all(h(a) for a in ce_s.filter_of[x]) for x in ce_s.filt_elements
    }
    table = {
        u: K.join_all(on_filt[x] for x in ce_s.filt_below[u])
        for u in ce_s.ext.elements
    }
    return LatticeHom(ce_s.ext, K, table)


# -- composition, Esakia, square transfer -------------------------------------


@dataclass(frozen=True)
class CompositionReport:
    holds: bool
    witness: str | None  # element of the source extension where they differ


def check_composition(
    g: MonotoneMap,
    f: MonotoneMap,
    mode: str,
    ce_m: CanonicalExtension,
    ce_l: CanonicalExtension,
    ce_k: CanonicalExtension,
) -> CompositionReport:
    """Does the lifting of f o g equal the composite of the liftings?

    g : M -> L and f : L -> K; the relevant hypothesis (f finite-join
    preserving for sigma, finite-meet for pi) is the caller's concern: the
    comparison itself is unconditional and reports a pointwise witness.
    """
    lift = sigma_extension if mode == "sigma" else pi_extension
    comp = lift(g.then(f), ce_m, ce_k)
    parts = lift(g, ce_m, ce_l).map.then(lift(f, ce_l, ce_k).map)
    for u in ce_m.ext.elements:
        if comp.map(u) != parts(u):
            return CompositionReport(False, u)
    return CompositionReport(True, None)


def is_filtered(ce: CanonicalExtension, F) -> bool:
    """Nonempty, down-directed, and inside the filter elements."""
    F = list(F)
    if not F or any(x not in ce.filt_elements for x in F):
        return False
    return all(
        any(ce.ext.leq(z, ce.ext.meet(x, y)) for z in F) for x in F for y in F
    )


def esakia_check(
    f: MonotoneMap, F, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> bool:
    """For join-preserving f and filtered F inside the filter elements:
    the delta lifting takes the meet of F to the meet of the image."""
    if not f.preserves_finite_joins():
        raise PreservationError("Esakia check needs a join-preserving map")
    if not is_filtered(ce_s, F):
        raise FilteredError("subset is not a filtered set of filter elements")
    d = delta_extension(f, ce_s, ce_t)
    lhs = d(ce_s.ext.meet_all(F))
    rhs = ce_t.ext.meet_all(d(x) for x in F)
    return lhs == rhs


def comjpm_decide(
    h1: LatticeHom,
    h2: LatticeHom,
    f: MonotoneMap,
    g: MonotoneMap,
) -> tuple[bool, bool]:
    """Square transfer for join-preserving maps.

    h1 : L1 -> K1 and h2 : L2 -> K2 are homs into (finite, hence complete)
    lattices, f : L1 -> L2 preserves finite joins, g : K1 -> K2 all joins.
    Requires the base square g o h1 = h2 o f to commute.  Returns

      (1) the prime-filter meet-exchange condition for g over h1,
      (2) g o ext(h1) = ext(h2) o delta(f) on the extension of L1,

    which are equivalent; both booleans are computed independently and the
    equality is asserted.
    """
    if not f.preserves_finite_joins():
        raise PreservationError("f must preserve finite joins")
    if not g.preserves_finite_joins():
        raise PreservationError("g must preserve all joins")
    for a in h1.source.elements:
        if g(h1(a)) != h2(f(a)):
            raise LatticeError(f"base square does not commute at {a}")
    L1, K1, K2 = h1.source, h1.target, h2.target
    cond1 = True
    for rho in prime_filters(L1):
        lhs = g(K1.meet_all(h1(a) for a in rho))
        rhs = K2.meet_all(g(h1(a)) for a in rho)
        if lhs != rhs:
            cond1 = False
            break
    ce1 = canonical_extension(L1)
    ce2 = canonical_extension(f.target)
    h1bar = extend_hom(h1, ce1)
    h2bar = extend_hom(h2, ce2)
    fdelta = delta_extension(f, ce1, ce2)
    cond2 = all(
        g(h1bar(u)) == h2bar(fdelta(u)) for u in ce1.ext.elements
    )
    assert cond1 == cond2, "square-transfer conditions disagree"
    return cond1, cond2


def restrict_extension(L: FinLattice, a: str) -> CanonicalExtension:
    """The canonical extension of the downset of a, realized inside the
    extension of L as the interval below the image of a."""
    require_distributive(L)
    ce = canonical_extension(L)
    base = L.down_lattice(a)
    ext = ce.ext.down_lattice(ce.e(a))
    restricted = CanonicalExtension(
        base, ext, {x: ce.e(x) for x in base.elements}
    )
    if not (check_dense(restricted) and check_compact(restricted)):
        raise LatticeError("restricted embedding is not dense and compact")
    return restricted
