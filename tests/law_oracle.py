"""The law checks as they were written before each law became one
generator of witnesses, kept as test oracles: `validate`, `validate_fo` and
`validate_morphism` with a flag loop per law, `open_check` and its own
Frobenius loop, the family conditions, `Evaluation.coherence_check` and
`sigma_bar_check`.  They report the same `LawCheck`s, so the new code must
give the same name, verdict and witness for every check, in order.  The
family oracles find each type afresh (`type_of_oracle`), so they read
nothing the family checks keep on a category."""

from itertools import product as iproduct

from cohext.canext import canonical_extension, comjpm_decide, delta_extension, extend_hom
from cohext.cohcat import ProductCone, is_product_cone
from cohext.fincat import composable_pairs
from cohext.hyperdoctrine import ValidationReport
from cohext.lattice import check_distributive, prime_filters
from cohext.logic.models import (
    Evaluation,
    PreconditionError,
    SigmaBarReport,
    _indices,
    _meet_exchange,
)
from cohext.report import LawCheck


def validate_oracle(P):
    checks = []
    # fibers
    w = None
    for A in P.base.objects:
        if A not in P.fibers:
            w = f"missing fiber at {A}"
            break
        if not check_distributive(P.fibers[A]):
            w = f"fiber at {A} is not distributive"
            break
    checks.append(LawCheck("fibers-distributive", w is None, w))
    # typing of subst/exists
    w = None
    for f, m in P.base.morphisms.items():
        if m.src not in P.fibers or m.tgt not in P.fibers:
            continue  # a missing fiber is a fibers-distributive witness
        s = P.subst.get(f)
        e = P.exists.get(f)
        if s is None or e is None:
            w = f"missing subst/exists at {f}"
            break
        if s.source != P.fibers[m.tgt] or s.target != P.fibers[m.src]:
            w = f"subst at {f} mistyped"
            break
        if e.source != P.fibers[m.src] or e.target != P.fibers[m.tgt]:
            w = f"exists at {f} mistyped"
            break
    checks.append(LawCheck("tables-typed", w is None, w))
    if w is not None or any(A not in P.fibers for A in P.base.objects):
        return ValidationReport(tuple(checks))
    # contravariant functoriality
    w = None
    for A in P.base.objects:
        i = P.base.identity(A)
        if any(P.sub(i)(a) != a for a in P.fibers[A].elements):
            w = f"subst at identity of {A} is not the identity"
            break
    if w is None:
        w = next(
            (
                f"functoriality fails on ({g.name},{f.name}) at {c}"
                for f, g in composable_pairs(P.base.morphisms)
                for c in P.fibers[g.tgt].elements
                if P.sub(P.base.compose(g.name, f.name))(c)
                != P.sub(f.name)(P.sub(g.name)(c))
            ),
            None,
        )
    checks.append(LawCheck("subst-functorial", w is None, w))
    # adjunctions
    w = None
    for f, m in P.base.morphisms.items():
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for a in FA.elements:
            for b in FB.elements:
                if FB.leq(P.ex(f)(a), b) != FA.leq(a, P.sub(f)(b)):
                    w = f"adjunction fails at {f} on ({a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("exists-left-adjoint", w is None, w))
    # Frobenius
    w = None
    for f, m in P.base.morphisms.items():
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for a in FA.elements:
            for b in FB.elements:
                lhs = P.ex(f)(FA.meet(a, P.sub(f)(b)))
                rhs = FB.meet(P.ex(f)(a), b)
                if lhs != rhs:
                    w = f"Frobenius fails at {f} on ({a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("frobenius", w is None, w))
    # Beck-Chevalley on the chosen squares
    w = None
    for sq in P.limits.squares:
        A = P.base.src(sq.alpha)
        for a in P.fibers[A].elements:
            lhs = P.sub(sq.beta)(P.ex(sq.alpha)(a))
            rhs = P.ex(sq.alpha_p)(P.sub(sq.beta_p)(a))
            if lhs != rhs:
                w = f"Beck-Chevalley fails on square ({sq.alpha},{sq.beta}) at {a}"
                break
        if w:
            break
    checks.append(LawCheck("beck-chevalley", w is None, w))
    return ValidationReport(tuple(checks))


def validate_morphism_oracle(m):
    checks = []
    P1, P2 = m.source, m.target
    w = None
    for A in P1.base.objects:
        t = m.tau.get(A)
        if t is None or t.source != P1.fibers[A] or t.target != P2.fibers[
            m.K.on_obj(A)
        ]:
            w = f"component at {A} missing or mistyped"
            break
    checks.append(LawCheck("components-typed", w is None, w))
    if w is not None:
        return ValidationReport(tuple(checks))
    # K preserves the chosen limits present on both sides
    w = None
    if P1.limits.terminal is not None:
        T2 = m.K.on_obj(P1.limits.terminal)
        if any(len(P2.base.hom(X, T2)) != 1 for X in P2.base.objects):
            w = "terminal not preserved"
    if w is None:
        for (A, B), cone in P1.limits.products.items():
            fc = ProductCone(
                m.K.on_obj(cone.obj), m.K.on_mor(cone.pi1), m.K.on_mor(cone.pi2)
            )
            if not is_product_cone(P2.base, m.K.on_obj(A), m.K.on_obj(B), fc):
                w = f"product of ({A},{B}) not preserved"
                break
    checks.append(LawCheck("limits-preserved", w is None, w))
    # naturality
    w = None
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src], m.tau[mor.tgt]
        for b in P1.fibers[mor.tgt].elements:
            if tA(P1.sub(f)(b)) != P2.sub(m.K.on_mor(f))(tB(b)):
                w = f"naturality fails at {f} on {b}"
                break
        if w:
            break
    checks.append(LawCheck("naturality", w is None, w))
    # existential preservation
    w = None
    for f, mor in P1.base.morphisms.items():
        tA, tB = m.tau[mor.src], m.tau[mor.tgt]
        for a in P1.fibers[mor.src].elements:
            if P2.ex(m.K.on_mor(f))(tA(a)) != tB(P1.ex(f)(a)):
                w = f"exists-preservation fails at {f} on {a}"
                break
        if w:
            break
    checks.append(LawCheck("exists-preserved", w is None, w))
    return ValidationReport(tuple(checks))


def validate_fo_oracle(P):
    checks = list(validate_oracle(P).checks)
    # no law is checked after a missing fiber or a tables-typed failure
    if not checks[1].passed or any(A not in P.fibers for A in P.base.objects):
        return ValidationReport(tuple(checks))
    # Heyting law per fiber
    w = None
    for A in P.base.objects:
        L = P.fibers[A]
        imp = P.implication.get(A)
        if imp is None:
            w = f"missing implication table at {A}"
            break
        for a, b in iproduct(L.elements, repeat=2):
            r = imp.get((a, b))
            if r is None:
                w = f"implication undefined on ({a},{b}) at {A}"
                break
            for x in L.elements:
                if L.leq(x, r) != L.leq(L.meet(x, a), b):
                    w = f"Heyting law fails at {A} on ({x},{a},{b})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("heyting-fibers", w is None, w))
    # forall right adjoint to subst
    w = None
    for f, m in P.base.morphisms.items():
        fa = P.forall.get(f)
        if fa is None:
            w = f"missing forall at {f}"
            break
        FA, FB = P.fibers[m.src], P.fibers[m.tgt]
        for u in FA.elements:
            for v in FB.elements:
                if FB.leq(v, fa(u)) != FA.leq(P.sub(f)(v), u):
                    w = f"forall adjunction fails at {f} on ({u},{v})"
                    break
            if w:
                break
        if w:
            break
    checks.append(LawCheck("forall-right-adjoint", w is None, w))
    # substitution preserves implication
    w = None
    for f, m in P.base.morphisms.items():
        impB = P.implication.get(m.tgt, {})
        impA = P.implication.get(m.src, {})
        for a, b in iproduct(P.fibers[m.tgt].elements, repeat=2):
            if (a, b) not in impB or (P.sub(f)(a), P.sub(f)(b)) not in impA:
                continue  # a missing entry is a heyting-fibers witness
            if impB[(a, b)] not in P.fibers[m.tgt].elements or (
                impA[(P.sub(f)(a), P.sub(f)(b))] not in P.fibers[m.src].elements
            ):
                continue  # so is an entry outside its fiber
            lhs = P.sub(f)(impB[(a, b)])
            rhs = impA[(P.sub(f)(a), P.sub(f)(b))]
            if lhs != rhs:
                w = f"subst at {f} breaks implication on ({a},{b})"
                break
        if w:
            break
    checks.append(LawCheck("subst-preserves-implication", w is None, w))
    return ValidationReport(tuple(checks))


def open_check_oracle(m):
    """Open locale map: componentwise left adjoints exist (always, at
    finite scale), are natural in the base, and satisfy Frobenius.
    Naturality is derived by checking it, not assumed."""
    sigma = {}
    for A, comp in m.components.items():
        adj = comp.left_adjoint()
        if adj is None:
            return False, f"component at {A} has no left adjoint"
        sigma[A] = adj
    C, D, F = m.C, m.D, m.F
    for f, mor in C.cat.morphisms.items():
        A, B = mor.src, mor.tgt
        subC = delta_extension(
            C.pullback_map(f), m.source_ext[B], m.source_ext[A]
        ).map
        subD = delta_extension(
            D.pullback_map(F.on_mor(f)), m.target_ext[B], m.target_ext[A]
        ).map
        for w in m.target_ext[B].ext.elements:
            if sigma[A](subD(w)) != subC(sigma[B](w)):
                return False, f"adjoints not natural along {f} at {w}"
    for A, comp in m.components.items():
        E_t, E_s = m.target_ext[A].ext, m.source_ext[A].ext
        for w in E_t.elements:
            for v in E_s.elements:
                if sigma[A](E_t.meet(w, comp(v))) != E_s.meet(sigma[A](w), v):
                    return False, f"Frobenius fails at {A} on ({w},{v})"
    return True, None


def type_of_oracle(C, A, model_index, a):
    """The subobjects of A whose component at the model contains a."""
    S = C.sub_lattice(A)
    return frozenset(u for u in S.elements if a in C.decode(A, u)[model_index])


def unrealized_prime_filter_oracle(C, indices, A):
    """The first prime filter of Sub(A) that no element of the indexed
    models realizes as its type, or None."""
    realized = {
        type_of_oracle(C, A, i, a)
        for i in indices
        for a in C.family.models[i].sorts[A]
    }
    for rho in prime_filters(C.sub_lattice(A)):
        if frozenset(rho) not in realized:
            return rho
    return None


def check_m1_oracle(C, indices=None):
    """Every family member commutes images with prime-filter meets."""
    for i in _indices(C, indices):
        for f, tm in C._maps.items():
            S = C.sub_lattice(tm.src)
            for rho in prime_filters(S):
                if not _meet_exchange(C, tm, i, rho):
                    return LawCheck(
                        "M1", False,
                        f"model {i}, map {f}, prime filter {sorted(rho)}",
                    )
    return LawCheck("M1", True)


def check_m2_oracle(C, indices=None):
    """Every prime filter of every subobject lattice is a realized type."""
    idx = _indices(C, indices)
    for A in C.sorts:
        rho = unrealized_prime_filter_oracle(C, idx, A)
        if rho is not None:
            return LawCheck(
                "M2", False, f"prime filter {sorted(rho)} of {A} unrealized"
            )
    return LawCheck("M2", True)


def check_m3_oracle(C, indices=None):
    """Whenever b lies in every N-component of the type of a, some family
    homomorphism carries a to b."""
    fam = C.family
    idx = _indices(C, indices)
    for A in C.sorts:
        for i in idx:
            for a in fam.models[i].sorts[A]:
                t = type_of_oracle(C, A, i, a)
                for j in idx:
                    meet = set(fam.models[j].sorts[A])
                    for u in t:
                        meet &= C.decode(A, u)[j]
                    missing = meet - fam.reach[(i, j)][A][a]
                    if missing:
                        return LawCheck(
                            "M3", False,
                            f"no hom sends {a} (model {i}) to {min(missing)} "
                            f"(model {j}) at {A}",
                        )
    return LawCheck("M3", True)


def coherence_check_oracle(self: Evaluation):
    """Degreewise: the subobject action preserves meets, joins, and
    images, i.e. sigma commutes with the structure maps."""
    C = self.C
    for A in C.sorts:
        s = self.sigma(A)
        if not s.is_lattice_hom():
            return LawCheck("ev-coherent", False, f"sigma at {A} not a hom")
    for f, tm in C._maps.items():
        sA, sB = self.sigma(tm.src), self.sigma(tm.tgt)
        imC, imE = C.image_map(f), self.image_map(f)
        pbC, pbE = C.pullback_map(f), self.pullback_map(f)
        for u in sA.source.elements:
            if sB(imC(u)) != imE(sA(u)):
                return LawCheck(
                    "ev-coherent", False, f"image along {f} at {u}"
                )
        for v in sB.source.elements:
            if sA(pbC(v)) != pbE(sB(v)):
                return LawCheck(
                    "ev-coherent", False, f"preimage along {f} at {v}"
                )
    return LawCheck("ev-coherent", True)


def sigma_bar_check_oracle(C, require_conditions=True, indices=None, budget=None):
    """Extend the subobject-to-subfunctor comparison to the fiber
    extensions and check it is an internal frame isomorphism: natural,
    existential-preserving, an embedding, and surjective.  `budget` bounds
    each subfunctor lattice of the evaluation."""
    if require_conditions:
        for rep in (check_m1_oracle(C, indices), check_m2_oracle(C, indices), check_m3_oracle(C, indices)):
            if not rep.passed:
                raise PreconditionError(f"{rep.name} fails: {rep.witness}")
    ev = Evaluation(C, indices, budget)
    exts = {A: canonical_extension(C.sub_lattice(A)) for A in C.sorts}
    sigma = {A: ev.sigma(A) for A in C.sorts}
    sigma_bar = {A: extend_hom(sigma[A], exts[A]) for A in C.sorts}
    # naturality across substitution
    nat = LawCheck("naturality", True)
    for f, tm in C._maps.items():
        subd = delta_extension(C.pullback_map(f), exts[tm.tgt], exts[tm.src]).map
        pbE = ev.pullback_map(f)
        for v in exts[tm.tgt].ext.elements:
            if sigma_bar[tm.src](subd(v)) != pbE(sigma_bar[tm.tgt](v)):
                nat = LawCheck(
                    "naturality", False, f"fails along {f} at {v}"
                )
                break
        if not nat.passed:
            break
    # existential preservation, via the square-transfer machinery
    exp = LawCheck("exists-preservation", True)
    for f, tm in C._maps.items():
        im = C.image_map(f)
        exd = delta_extension(im, exts[tm.src], exts[tm.tgt]).map
        imE = ev.image_map(f)
        direct = all(
            sigma_bar[tm.tgt](exd(u)) == imE(sigma_bar[tm.src](u))
            for u in exts[tm.src].ext.elements
        )
        c1, c2 = comjpm_decide(sigma[tm.src], sigma[tm.tgt], im, imE)
        if not (direct and c1 and c2):
            exp = LawCheck(
                "exists-preservation", False, f"fails along {f}"
            )
            break
    # embedding
    emb = LawCheck("embedding", True)
    for A in C.sorts:
        if not sigma_bar[A].is_order_embedding():
            rho = unrealized_prime_filter_oracle(C, ev.indices, A)
            emb = LawCheck(
                "embedding", False,
                f"component at {A} not an embedding"
                + (f"; unrealized prime filter {sorted(rho)}" if rho else ""),
            )
            break
    # surjectivity via the join of type points
    sur = LawCheck("surjectivity", True)
    for A in C.sorts:
        SE = ev.sub_lattice(A)
        ext = exts[A]
        for H in SE.elements:
            fam = SE.decode[H]
            points = []
            for pj, j in enumerate(ev.indices):
                for a in sorted(fam[pj]):
                    rho = type_of_oracle(C, A, j, a)
                    points.append(
                        ext.ext.meet_all(ext.e(u) for u in rho)
                    )
            u = ext.ext.join_all(points)
            if sigma_bar[A](u) != H:
                sur = LawCheck(
                    "surjectivity", False, f"subfunctor {H} of ev({A}) not reached"
                )
                break
        if not sur.passed:
            break
    return SigmaBarReport(nat, exp, emb, sur)
