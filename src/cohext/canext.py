"""Canonical extension of finite distributive lattices and of monotone maps.

The extension of L is materialized as the downset lattice of the poset of
prime filters of L under reverse inclusion, with the embedding
a |-> {rho | a in rho}.  Even though the embedding is an isomorphism for
finite L, the construction mirrors the general definitions: denseness and
the two-stage sigma lifting formula are computed literally, and
compactness is decided over the meets and joins of all subsets, which is
equivalent to quantifying over all subset pairs.  So the code paths match
the infinite-case definitions and the finite collapse is a theorem the
test suite proves rather than a shortcut.

Each extension keeps, by `order.cached`, the tables the formula reads:
each filter element paired with its filter (`filt_filters`) and the filter
elements below each element (`filt_below`).  `_two_stage` reads them with
two plain loops over the target's meet and join tables: meets over each
filter, then joins over the filter elements below.  The finite-collapse
shortcuts are still not taken: a filter's meet is not read off its least
member, and the table is not read off an embedding that is onto.  An
extension, like its lattices, also keeps its structural hash, so the
lookups keyed by it (`extend_hom`) or by its base (`_EXTENSION_CACHE`)
hash each instance once.

A map that preserves finite joins or finite meets has sigma = pi = delta
(Gehrke & Jonsson, "Bounded distributive lattice expansions", 2004), so
every program lift of a map that preserves finite joins is its sigma
lift.  `delta_extension`, the checked form, computes both lifts and
refuses them unless they agree; only `esakia_check`, which states
Esakia's lemma for delta, takes it.  The tests check sigma = pi by running
it on every map between lattices of DL(<=4) that preserves either.

Square transfer (`comjpm_decide`) is decided per map pair: condition (1)
and the table of g o ext(h1) depend only on (g, h1), and the table of
ext(h2) o sigma(f) only on (f, h2).  `comjpm_decide` keeps each pair's
data on g and on f as tuples in the element orders of the one kept
extension of their source, so a square costs two lookups and two tuple
comparisons.  `square_transfer` decides every commuting square of a
quadruple of lattices from the pair data alone, in time linear in the
pairs, and keeps none of it on the maps.

The meet side is read through the order dual.  `CanonicalExtension.dual`
embeds `base.dual` into `ext.dual` by the same map, so its filter elements
and tables are the ideal elements and tables of the extension itself:
denseness checks the join half on both, and the pi extension reads the
two-stage formula of the sigma extension on the duals.
"""

from __future__ import annotations

from dataclasses import dataclass

from .lattice import (
    FinLattice,
    LatticeError,
    LatticeHom,
    MonotoneMap,
    downset_lattice,
    join_preserving_maps,
    lattice_homs,
    prime_filter_poset,
    require_distributive,
)
from .order import BudgetError, cached, cached_method, set_name, trusted_instance


class PreservationError(LatticeError):
    """Map preserves neither finite joins nor finite meets."""


class FilteredError(LatticeError):
    """Subset is not down-directed."""


@dataclass(frozen=True, eq=False, repr=False)
class CanonicalExtension:
    """An injective lattice hom `embed` of `base` into the complete (here:
    finite) lattice `ext`, trusted as given.

    `canonical_extension` builds the dense and compact one; other
    embeddings can be wrapped too, so denseness and compactness stay
    checks, not postconditions.
    """

    base: FinLattice
    ext: FinLattice
    embed: dict[str, str]

    def e(self, a: str) -> str:
        return self.embed[a]

    # Derived tables, computed once per extension by `order.cached`.

    @cached
    def image(self) -> frozenset[str]:
        return frozenset(self.embed.values())

    @cached
    def filter_of(self) -> dict[str, tuple[str, ...]]:
        """For each x in ext, the base elements whose image lies above x."""
        ext, e = self.ext, self.embed
        return {
            x: tuple(a for a in self.base.elements if ext.leq(x, e[a]))
            for x in ext.elements
        }

    @cached
    def filt_elements(self) -> frozenset[str]:
        """Meet closure of the embedded image in ext."""
        ext, e = self.ext, self.embed
        return frozenset(
            x
            for x in ext.elements
            if x == ext.meet_all(e[a] for a in self.filter_of[x])
        )

    @cached
    def filt_filters(self) -> tuple[tuple[str, tuple[str, ...]], ...]:
        """Each filter element, in ext order, paired with its filter."""
        filt, filter_of = self.filt_elements, self.filter_of
        return tuple((x, filter_of[x]) for x in self.ext.elements if x in filt)

    @cached
    def filt_below(self) -> dict[str, tuple[str, ...]]:
        """For each u in ext, the filter elements below u, in ext order."""
        ext = self.ext
        return {
            u: tuple(x for x, _ in self.filt_filters if ext.leq(x, u))
            for u in ext.elements
        }

    @cached
    def dual(self) -> CanonicalExtension:
        """`base.dual` embedded into `ext.dual` by the same map: its filter
        elements are the ideal elements here (the join closure of the
        image), and `ce.dual.dual is ce`."""
        return trusted_instance(
            CanonicalExtension, base=self.base.dual, ext=self.ext.dual,
            embed=self.embed, dual=self,
        )

    def is_iso(self) -> bool:
        return len(self.image) == len(self.ext.elements)

    def __eq__(self, other):
        return (
            isinstance(other, CanonicalExtension)
            and self.base == other.base
            and self.ext == other.ext
            and self.embed == other.embed
        )

    @cached
    def _hash(self) -> int:
        return hash((self.base, self.ext, tuple(sorted(self.embed.items()))))

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"CanonicalExtension({self.base!r} -> {self.ext!r})"


# Process-wide on purpose, keyed by lattice equality: callers rebuild equal
# but distinct lattices (fibers, subobject lattices, catalogue entries), and
# a per-instance cache would extend each of them again.  In one seed-1 sweep
# of the benchmark's site workload, 460 of 479 calls hit on such a lattice.
# Every lattice seen stays alive with its extension for the process.
_EXTENSION_CACHE: dict = {}


def canonical_extension(L: FinLattice) -> CanonicalExtension:
    """Downsets of (PrFl(L), reverse inclusion), embedding a to its
    prime-filter spectrum.  Cached; extensions are immutable."""
    cached = _EXTENSION_CACHE.get(L)
    if cached is not None:
        return cached
    require_distributive(L)
    ext = downset_lattice(prime_filter_poset(L))
    embed = {
        a: ext.encode[frozenset(set_name(s) for s in L.prime_filter_sets if a in s)]
        for a in L.elements
    }
    ce = CanonicalExtension(L, ext, embed)
    _EXTENSION_CACHE[L] = ce
    return ce


def check_dense(ce: CanonicalExtension) -> bool:
    """Every element of ext is a join of filter elements and a meet of
    ideal elements (equivalently: a join of meets and meet of joins of
    embedded elements); the meet half is the join half of `ce.dual`."""
    return all(
        c.ext.join_all(c.filt_below[u]) == u
        for c in (ce, ce.dual)
        for u in c.ext.elements
    )


def check_compact(ce: CanonicalExtension, budget: int | None = None) -> bool:
    """For all F, I subsets of the base with /\\ e[F] <= \\/ e[I] in ext,
    some finite F' <= F, I' <= I satisfy /\\ F' <= \\/ I' in the base.

    At finite scale the whole subsets are the optimal finite witnesses, so
    the check compares the two inequalities directly.  They depend on a
    subset pair (F, I) only through the values (/\\ e[F], /\\ F) and
    (\\/ e[I], \\/ I), so quantifying over the distinct meet and join
    values of all subsets is equivalent to quantifying over all subset
    pairs.  Each subset's meet and join come from the subset without its
    highest element; `budget` (default 2^11) bounds the 2^n subsets tabulated.
    """
    budget = budget if budget is not None else 1 << 11
    base, ext = ce.base, ce.ext
    elems = base.elements
    n = len(elems)
    if 1 << n > budget:
        raise BudgetError(f"compactness check tabulates 2^{n} subsets, over "
                          f"{budget}; raise --budget")
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


@dataclass(frozen=True, eq=False, repr=False)
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

    def __repr__(self):
        return f"ExtendedMap({self.kind}: {self.map.source!r} -> {self.map.target!r})"


def _two_stage(ce: CanonicalExtension, T: FinLattice, value: dict) -> dict:
    """The table on ce.ext of the two-stage formula for a map `value` from
    the base into the complete lattice T: on a filter element x, the meet
    of `value` over the filter of x; in general, the join of those meets
    over the filter elements below.  It is monotone by construction: u <= v
    puts the filter elements below u among those below v.

    Both stages read the tables kept on the extension (`filt_filters`,
    `filt_below`) with plain loops over T's meet and join tables.  The
    finite collapse is not used: a filter is not read off its least
    member, nor the table off an embedding that is onto."""
    meet, join = T.meet_table, T.join_table
    on_filt = {}
    for x, filt in ce.filt_filters:
        m = T.top
        for a in filt:
            m = meet[m, value[a]]
        on_filt[x] = m
    table = {}
    for u, below in ce.filt_below.items():
        j = T.bottom
        for x in below:
            j = join[j, on_filt[x]]
        table[u] = j
    return table


def sigma_extension(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> ExtendedMap:
    """The two-stage formula for f followed by the embedding of ce_t."""
    _check_lift_typing(f, ce_s, ce_t)
    return ExtendedMap("sigma", f, ce_s, ce_t, sigma_map(f, ce_s, ce_t))


def sigma_map(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> MonotoneMap:
    """The table of `sigma_extension`, unchecked: for a caller that knows
    f's lattices are the bases of ce_s and ce_t."""
    value = {a: ce_t.embed[b] for a, b in f.mapping.items()}
    return MonotoneMap(ce_s.ext, ce_t.ext, _two_stage(ce_s, ce_t.ext, value))


def pi_extension(
    f: MonotoneMap, ce_s: CanonicalExtension, ce_t: CanonicalExtension
) -> ExtendedMap:
    """The order dual of `sigma_extension`: its two-stage formula read on
    `ce_s.dual` into `ce_t.ext.dual` (joins over ideals, then meets over
    the ideal elements above); the table is the same on the extensions."""
    _check_lift_typing(f, ce_s, ce_t)
    value = {a: ce_t.embed[b] for a, b in f.mapping.items()}
    table = _two_stage(ce_s.dual, ce_t.ext.dual, value)
    table_map = MonotoneMap(ce_s.ext, ce_t.ext, table)
    return ExtendedMap("pi", f, ce_s, ce_t, table_map)


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
    """Identity first: structural equality is the slow path."""
    for end, base in ((f.source, ce_s.base), (f.target, ce_t.base)):
        if end is not base and end != base:
            raise LatticeError("map endpoints do not match the given extensions")


@cached_method
def extend_hom(h: LatticeHom, ce_s: CanonicalExtension) -> LatticeHom:
    """The unique complete homomorphism ext -> K agreeing with h on the
    embedded base.  K is the codomain of h itself, not its extension.

    When the embedding is onto, as on every extension `canonical_extension`
    builds, the table is h read through it, a hom by construction; through
    an embedding that is not onto the table is monotone, and refused
    unless it is a hom.  Computed once per extension and kept on h; the
    result does not refer to h."""
    hbar = LatticeHom(ce_s.ext, h.target, _two_stage(ce_s, h.target, h.mapping))
    if not ce_s.is_iso() and not hbar.is_lattice_hom():
        raise LatticeError("not a lattice homomorphism")
    return hbar


@cached_method
def _kept_sigma_extension(f: MonotoneMap) -> ExtendedMap:
    """f's `sigma_extension` between the canonical extensions of its ends,
    kept on f for the squares that share it."""
    return sigma_extension(
        f, canonical_extension(f.source), canonical_extension(f.target)
    )


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
    equality is asserted.  f preserves finite joins, checked first, so its
    delta lift is its sigma lift, which (2) reads.

    Condition (1) and the left side of (2) depend only on (g, h1), the
    right side only on (f, h2); each pair's data is kept on g and on f
    (`_kept_transfer_left`, `_kept_transfer_right`), so a square whose
    pairs were seen before costs two lookups and two tuple comparisons.
    """
    if not f.preserves_finite_joins():
        raise PreservationError("f must preserve finite joins")
    if not g.preserves_finite_joins():
        raise PreservationError("g must preserve all joins")
    if f.source is not h1.source and f.source != h1.source:
        raise LatticeError("f and h1 must start at the same lattice")
    key1, cond1, table1 = _kept_transfer_left(g, h1)
    key2, table2 = _kept_transfer_right(f, h2)
    if key1 != key2:
        a = next(a for a in h1.source.elements if g(h1(a)) != h2(f(a)))
        raise LatticeError(f"base square does not commute at {a}")
    cond2 = table1 == table2
    assert cond1 == cond2, "square-transfer conditions disagree"
    return cond1, cond2


def _hom_side(h: LatticeHom, ce: CanonicalExtension, hbar: dict) -> tuple:
    """What the pair tables read of a hom h : L -> K, given ce, the
    extension of L, and the table hbar of ext(h): h's values on the base
    elements and hbar's on the extension elements, in element order, and
    for each prime filter of L the meet in K of h over it with the values
    it is the meet of."""
    K, hm = h.target, h.mapping
    meets = tuple(
        (K.meet_all(values), values)
        for values in (tuple(hm[a] for a in rho) for rho in ce.base.prime_filter_sets)
    )
    return (
        tuple(hm[a] for a in ce.base.elements),
        tuple(hbar[u] for u in ce.ext.elements),
        meets,
    )


def _transfer_left(g: MonotoneMap, h1_side: tuple) -> tuple[tuple, bool, tuple]:
    """The data of the squares with right side g and top h1, read off
    `_hom_side` of h1: the base composite g o h1, condition (1), and the
    table of g o ext(h1), as tuples in element order."""
    values, lifted, meets = h1_side
    at, K2 = g.mapping.__getitem__, g.target
    cond1 = True
    for m, rho in meets:
        if at(m) != K2.meet_all(map(at, rho)):
            cond1 = False
            break
    return tuple(map(at, values)), cond1, tuple(map(at, lifted))


def _transfer_right(
    f_side: tuple, h2: LatticeHom, h2bar: dict
) -> tuple[tuple, tuple]:
    """The data of the squares with left side f and bottom h2, read off f's
    values on the base elements and sigma(f)'s on the extension elements
    (`f_side`) and the table h2bar of ext(h2): the base composite h2 o f
    and the table of ext(h2) o sigma(f), in the orders of `_transfer_left`."""
    values, lifted = f_side
    return (
        tuple(map(h2.mapping.__getitem__, values)),
        tuple(map(h2bar.__getitem__, lifted)),
    )


def _join_map_side(f: MonotoneMap, ce1: CanonicalExtension, fsigma: dict) -> tuple:
    """f's values on the base elements of ce1 and the values of its sigma
    lift, with table fsigma, on the extension elements."""
    fm = f.mapping
    return (
        tuple(fm[a] for a in ce1.base.elements),
        tuple(fsigma[u] for u in ce1.ext.elements),
    )


@cached_method
def _kept_transfer_left(g: MonotoneMap, h1: LatticeHom) -> tuple[tuple, bool, tuple]:
    """`_transfer_left` for (g, h1), kept on g per h1."""
    ce1 = canonical_extension(h1.source)
    return _transfer_left(g, _hom_side(h1, ce1, extend_hom(h1, ce1).mapping))


@cached_method
def _kept_transfer_right(f: MonotoneMap, h2: LatticeHom) -> tuple[tuple, tuple]:
    """`_transfer_right` for (f, h2), kept on f per h2; reads the sigma
    lift kept on f."""
    f_side = _join_map_side(
        f, canonical_extension(f.source), _kept_sigma_extension(f).map.mapping
    )
    return _transfer_right(
        f_side, h2, extend_hom(h2, canonical_extension(f.target)).mapping
    )


@dataclass(frozen=True)
class SquareTransferReport:
    squares: int  # commuting squares decided
    witness: tuple | None  # first square (h1, h2, f, g) whose conditions disagree

    @property
    def holds(self) -> bool:
        return self.witness is None


def square_transfer(
    L1: FinLattice, K1: FinLattice, L2: FinLattice, K2: FinLattice
) -> SquareTransferReport:
    """`comjpm_decide` on every commuting square g o h1 = h2 o f with
    h1 : L1 -> K1 and h2 : L2 -> K2 homs and f : L1 -> L2, g : K1 -> K2
    join-preserving, decided per map pair instead of per square.

    The pairs (g, h1) are grouped by their base composite, and each (f, h2)
    meets the group of its own: those are the commuting squares.  Within
    a group, (1) == (2) on every square exactly when each (g, h1) with (1)
    true has the table of every (f, h2) in the group and each (g, h1) with
    (1) false has none of them, which takes time linear in the pairs.  The
    witness is the first failing square in the order of the per-square
    loop: f, then h2, then the group's (g, h1) in the order g, then h1.
    The lifts are those `comjpm_decide` reads, and each hom keeps its own
    (`extend_hom`), but the pair data and the sigma lifts stay in locals:
    nothing is kept on f or g."""
    ce1, ce2 = canonical_extension(L1), canonical_extension(L2)
    h1s, fs = lattice_homs(L1, K1), join_preserving_maps(L1, L2)
    h2s, gs = lattice_homs(L2, K2), join_preserving_maps(K1, K2)
    h1_sides = [_hom_side(h1, ce1, extend_hom(h1, ce1).mapping) for h1 in h1s]
    left = {}
    for g in gs:
        for h1, h1_side in zip(h1s, h1_sides):
            key, cond1, table = _transfer_left(g, h1_side)
            left.setdefault(key, []).append((g, h1, cond1, table))
    h2bars = [extend_hom(h2, ce2).mapping for h2 in h2s]
    right, tables = [], {}
    for f in fs:
        f_side = _join_map_side(f, ce1, sigma_map(f, ce1, ce2).mapping)
        for h2, h2bar in zip(h2s, h2bars):
            key, table = _transfer_right(f_side, h2, h2bar)
            if key in left:
                right.append((f, h2, key, table))
                tables.setdefault(key, set()).add(table)
    failing = {
        key
        for key, seen in tables.items()
        if any(seen != {t} if c else t in seen for _, _, c, t in left[key])
    }
    witness = next(
        (
            (h1, h2, f, g)
            for f, h2, key, t2 in right
            if key in failing
            for g, h1, c, t1 in left[key]
            if c != (t1 == t2)
        ),
        None,
    )
    return SquareTransferReport(
        sum(len(left[key]) for _, _, key, _ in right), witness
    )
