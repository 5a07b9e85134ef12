"""canext-sweep: a few lattices reused many times by catalog, lattice and
canext.

Set-up enumerates the 36 distributive lattices with at most 8 elements.
Jobs:
  - per lattice: canonical extension, denseness, compactness;
  - per ordered pair from DL(<=5): monotone, join-preserving and hom
    enumeration, sigma and pi on every monotone map, delta on every
    join-preserving map;
  - per DL(<=4) quadruple: the square-transfer loop around
    `comjpm_decide`, on a seeded sample of at most SQUARES_PER_QUAD of the
    quadruple's commuting squares.
A quadruple has 0 to 2,837 commuting squares.  Sampling quadruples instead
of squares makes both the run time and the median job depend on which
heavy quadruples a seed draws (by 15% and 12%); every quadruple with a
bounded sample of squares keeps the mix of jobs the same for every seed.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from functools import partial

from cohext.canext import (
    canonical_extension,
    check_compact,
    check_dense,
    comjpm_decide,
    delta_extension,
    pi_extension,
    sigma_extension,
)
from cohext.catalog import distributive_lattices
from cohext.lattice import join_preserving_maps, lattice_homs, monotone_maps

# Distributive lattices with n = 1..8 elements, up to isomorphism.
LATTICES_PER_SIZE = (1, 1, 1, 2, 3, 5, 8, 15)
SQUARES_PER_QUAD = 8


def setup(rng: random.Random, run) -> list[tuple[str, object]]:
    lats = run.call("catalog", distributive_lattices, 8)
    run.count("catalog.lattices", len(lats))
    sizes = Counter(len(L.elements) for L in lats)
    got = tuple(sizes[n] for n in range(1, 9))
    run.check(f"lattices per size {got}", got == LATTICES_PER_SIZE)

    jobs = [(f"lattice/{i}", partial(lattice_job, L)) for i, L in enumerate(lats)]
    small = [L for L in lats if len(L.elements) <= 5]
    for (i, L), (j, K) in itertools.product(enumerate(small), repeat=2):
        jobs.append((f"pair/{i}/{j}", partial(pair_job, L, K)))

    tiny = [L for L in lats if len(L.elements) <= 4]
    for q in itertools.product(range(len(tiny)), repeat=4):
        jobs.append((
            "quad/" + "/".join(map(str, q)),
            partial(quad_job, *(tiny[i] for i in q), rng.getrandbits(32)),
        ))
    return jobs


def lattice_job(L, run):
    ce = run.call("canext", canonical_extension, L)
    run.count("canext.extensions")
    run.check("dense", run.call("canext", check_dense, ce))
    compact = run.budgeted("canext", check_compact, ce)
    if compact is not None:
        run.check("compact", compact)
    run.check("embedding onto", run.call("canext", ce.is_iso))
    return [len(L.elements), compact]


def pair_job(L, K, run):
    cl = run.call("canext", canonical_extension, L)
    ck = run.call("canext", canonical_extension, K)
    run.count("canext.extensions", 2)
    ms = run.call("lattice", monotone_maps, L, K)
    js = run.call("lattice", join_preserving_maps, L, K)
    hs = run.call("lattice", lattice_homs, L, K)
    run.count("lattice.maps", len(ms) + len(js) + len(hs))
    run.check("homs <= join-preserving <= monotone", len(hs) <= len(js) <= len(ms))
    run.check("hom count by Birkhoff duality", len(hs) == dual_hom_count(L, K))
    for f in ms:
        s = run.call("canext", sigma_extension, f, cl, ck)
        p = run.call("canext", pi_extension, f, cl, ck)
        run.check(
            "sigma <= pi",
            all(ck.ext.leq(s.map(u), p.map(u)) for u in cl.ext.elements),
        )
    for f in js:
        run.call("canext", delta_extension, f, cl, ck)
    run.count("canext.lifts", 2 * len(ms) + len(js))
    return [len(ms), len(js), len(hs)]


def dual_hom_count(L, K) -> int:
    """Bounded homs L -> K correspond to monotone maps J(K) -> J(L) between
    the posets of join-irreducibles, which the catalog keeps as
    `base_poset`.  Counted by brute force, independently of cohext."""
    src, tgt = K.base_poset, L.base_poset
    return sum(
        all((img[a], img[b]) in tgt.pairs for a, b in src.pairs)
        for img in (
            dict(zip(src.elements, choice))
            for choice in itertools.product(tgt.elements, repeat=len(src.elements))
        )
    )


def quad_job(L1, K1, L2, K2, sample_seed, run):
    h1s = run.call("lattice", lattice_homs, L1, K1)
    fs = run.call("lattice", join_preserving_maps, L1, L2)
    h2s = run.call("lattice", lattice_homs, L2, K2)
    gs = run.call("lattice", join_preserving_maps, K1, K2)
    run.count("lattice.maps", len(h1s) + len(fs) + len(h2s) + len(gs))
    left = {}
    for g in gs:
        for h1 in h1s:
            left.setdefault(tuple(g(h1(a)) for a in L1.elements), []).append((g, h1))
    squares = [
        (h1, h2, f, g)
        for f in fs
        for h2 in h2s
        for g, h1 in left.get(tuple(h2(f(a)) for a in L1.elements), ())
    ]
    if len(squares) > SQUARES_PER_QUAD:
        chosen = random.Random(sample_seed).sample(squares, SQUARES_PER_QUAD)
    else:
        chosen = squares
    holds = 0
    for square in chosen:
        c1, c2 = run.call("canext", comjpm_decide, *square)
        run.check("square-transfer conditions agree", c1 == c2)
        holds += c1
    run.count("canext.squares", len(chosen))
    return [len(squares), len(chosen), holds]
