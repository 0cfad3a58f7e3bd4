"""Brute-force evaluators used as independent oracles.

Everything here works by explicit summation over raw structure-constant
entries plus index arithmetic on permutation matrices, deliberately
avoiding the package's compose/tensor/inverse machinery.  The braiding,
tensor and compatibility evaluators need structure maps that are basis
permutations (true for every fixture in the suite); the per-map law
evaluators at the end take any maps.
"""

import itertools

import numpy as np


def perm_images(linmap):
    """images[j] = i for a permutation matrix; asserts the shape."""
    ent = linmap.entries
    n = ent.shape[1]
    images = []
    for j in range(n):
        hits = [i for i in range(ent.shape[0]) if ent[i, j]]
        assert len(hits) == 1 and ent[hits[0], j] == 1, "not a permutation matrix"
        images.append(hits[0])
    assert sorted(images) == list(range(n))
    return images


def perm_inverse(images):
    inv = [0] * len(images)
    for j, i in enumerate(images):
        inv[i] = j
    return inv


def _reduce(field, value):
    return value % field.characteristic if field.characteristic else value


def oracle_braiding_B(m, n):
    """B(f_a ⊗ g_b) = alpha_H^{-1}(m_(-1))·n ⊗ m_(0) by explicit summation."""
    field = m.field
    dh, dm, dn = m.over.dim, m.dim, n.dim
    coact = m.coact.entries          # [i*dm + m0, a]
    act_n = n.act.entries            # [n1, i*dn + b]
    ainv = perm_inverse(perm_images(m.over.alpha))
    out = np.full((dn * dm, dm * dn), 0, dtype=object)
    for a in range(dm):
        for b in range(dn):
            col = a * dn + b
            for i in range(dh):
                for m0 in range(dm):
                    c1 = coact[i * dm + m0, a]
                    if not c1:
                        continue
                    for n1 in range(dn):
                        c2 = act_n[n1, ainv[i] * dn + b]
                        if c2:
                            out[n1 * dm + m0, col] = _reduce(
                                field, out[n1 * dm + m0, col] + c1 * c2
                            )
    return out


def oracle_braiding_c(m, n):
    """c(f_a ⊗ g_b) = alpha_N^{-1}(alpha_H^{-1}(m_(-1))·n) ⊗ alpha_M^{-1}(m_(0))."""
    field = m.field
    dh, dm, dn = m.over.dim, m.dim, n.dim
    coact = m.coact.entries
    act_n = n.act.entries
    ainv_h = perm_inverse(perm_images(m.over.alpha))
    ainv_m = perm_inverse(perm_images(m.alpha))
    ainv_n = perm_inverse(perm_images(n.alpha))
    out = np.full((dn * dm, dm * dn), 0, dtype=object)
    for a in range(dm):
        for b in range(dn):
            col = a * dn + b
            for i in range(dh):
                for m0 in range(dm):
                    c1 = coact[i * dm + m0, a]
                    if not c1:
                        continue
                    for n1 in range(dn):
                        c2 = act_n[n1, ainv_h[i] * dn + b]
                        if c2:
                            row = ainv_n[n1] * dm + ainv_m[m0]
                            out[row, col] = _reduce(field, out[row, col] + c1 * c2)
    return out


def oracle_hat_coaction(m, n):
    """(m⊗n) -> alpha_H^{-2}(m_(-1) n_(-1)) ⊗ (m_(0) ⊗ n_(0)) by summation."""
    field = m.field
    dh, dm, dn = m.over.dim, m.dim, n.dim
    coact_m = m.coact.entries
    coact_n = n.coact.entries
    mu = m.over.mu.entries           # [k, i*dh + j]
    ainv = perm_inverse(perm_images(m.over.alpha))
    out = np.full((dh * dm * dn, dm * dn), 0, dtype=object)
    for a in range(dm):
        for b in range(dn):
            col = a * dn + b
            for i in range(dh):
                for m0 in range(dm):
                    c1 = coact_m[i * dm + m0, a]
                    if not c1:
                        continue
                    for j in range(dh):
                        for n0 in range(dn):
                            c2 = coact_n[j * dn + n0, b]
                            if not c2:
                                continue
                            for k in range(dh):
                                c3 = mu[k, i * dh + j]
                                if c3:
                                    row = ainv[ainv[k]] * dm * dn + m0 * dn + n0
                                    out[row, col] = _reduce(
                                        field, out[row, col] + c1 * c2 * c3
                                    )
    return out


def oracle_yd_sides(m):
    """Both sides of the compatibility law per (h, m) basis pair."""
    field = m.field
    base = m.over
    dh, dm = base.dim, m.dim
    delta = base.delta.entries       # [h1*dh + h2, h]
    mu = base.mu.entries
    act = m.act.entries
    coact = m.coact.entries
    img = perm_images(base.alpha)

    def a1(i):
        return img[i]

    def a2(i):
        return img[img[i]]

    lhs = np.full((dh * dm, dh * dm), 0, dtype=object)
    rhs = np.full((dh * dm, dh * dm), 0, dtype=object)
    for h in range(dh):
        for a in range(dm):
            col = h * dm + a
            for h1 in range(dh):
                for h2 in range(dh):
                    d0 = delta[h1 * dh + h2, h]
                    if not d0:
                        continue
                    # left: (h1·m)_(-1) alpha^2(h2) ⊗ (h1·m)_(0)
                    for m1 in range(dm):
                        cact = act[m1, h1 * dm + a]
                        if not cact:
                            continue
                        for i in range(dh):
                            for m0 in range(dm):
                                cc = coact[i * dm + m0, m1]
                                if not cc:
                                    continue
                                for k in range(dh):
                                    cmu = mu[k, i * dh + a2(h2)]
                                    if cmu:
                                        row = k * dm + m0
                                        lhs[row, col] = _reduce(
                                            field, lhs[row, col] + d0 * cact * cc * cmu
                                        )
                    # right: alpha^2(h1) alpha(m_(-1)) ⊗ alpha(h2)·m_(0)
                    for i in range(dh):
                        for m0 in range(dm):
                            cc = coact[i * dm + m0, a]
                            if not cc:
                                continue
                            for k in range(dh):
                                cmu = mu[k, a2(h1) * dh + a1(i)]
                                if not cmu:
                                    continue
                                for m1 in range(dm):
                                    cact = act[m1, a1(h2) * dm + m0]
                                    if cact:
                                        row = k * dm + m1
                                        rhs[row, col] = _reduce(
                                            field, rhs[row, col] + d0 * cc * cmu * cact
                                        )
    return lhs, rhs


# -- per-map laws, by explicit summation over structure constants ----------
#
# A vector on a tensor product is a dict {basis multi-index: coefficient}.
# Each side of a law is a list of steps ``(pos, nin, constants)``: apply the
# map with those constants (domain indices first, as ``LinearMap.constants``
# gives them) to the ``nin`` tensor factors starting at ``pos``.  Nothing
# here calls compose, tensor or permute.


def _codomain_entries(image):
    """(codomain multi-index, coefficient) pairs of a nested constants slice."""
    if not isinstance(image, list):
        yield (), image
        return
    for i, sub in enumerate(image):
        for tail, v in _codomain_entries(sub):
            yield (i,) + tail, v


def _apply(vec, pos, nin, constants):
    out = {}
    for key, c in vec.items():
        image = constants
        for i in key[pos:pos + nin]:
            image = image[i]
        for tail, v in _codomain_entries(image):
            if v:
                k = key[:pos] + tail + key[pos + nin:]
                out[k] = out.get(k, 0) + c * v
    return out


def _column(field, vec, cod):
    """The flat row-major column of ``vec`` over the codomain dims ``cod``."""
    col = [0] * int(np.prod(cod, dtype=np.int64))
    for key, v in vec.items():
        col[int(np.ravel_multi_index(key, cod))] += v
    return tuple(_reduce(field, v) for v in col)


def oracle_law(field, law, dom, cod, lhs_steps, rhs_steps):
    """Failures ``(law, index, lhs, rhs)`` of a law over every basis
    multi-index of ``dom``, in row-major order."""
    failures = []
    for index in itertools.product(*(range(d) for d in dom)):
        sides = []
        for steps in (lhs_steps, rhs_steps):
            vec = {index: 1}
            for pos, nin, constants in steps:
                vec = _apply(vec, pos, nin, constants)
            sides.append(_column(field, vec, cod))
        if sides[0] != sides[1]:
            failures.append((law, index, *sides))
    return failures


def oracle_product_laws(f, alpha_x, mu_x, alpha, names):
    """For a product or an action f: X⊗M -> M, the failures of
    α(x·m) = α_X(x)·α(m) and α_X(x)·(y·m) = (xy)·α(m), named by ``names``."""
    dx, dm = f.dom
    F, A, AX, MU = (m.constants() for m in (f, alpha, alpha_x, mu_x))
    return (
        oracle_law(f.field, names[0], (dx, dm), (dm,),
                   [(0, 2, F), (0, 1, A)], [(0, 1, AX), (1, 1, A), (0, 2, F)])
        + oracle_law(f.field, names[1], (dx, dx, dm), (dm,),
                     [(1, 2, F), (0, 1, AX), (0, 2, F)], [(0, 2, MU), (1, 1, A), (0, 2, F)])
    )


def oracle_coproduct_laws(f, alpha_x, delta_x, alpha, names):
    """For a coproduct or a coaction f: M -> X⊗M, the failures of
    (α_X⊗α)∘f = f∘α and (Δ_X⊗α)∘f = (α_X⊗f)∘f, named by ``names``."""
    dx, dm = f.cod
    F, A, AX, DX = (m.constants() for m in (f, alpha, alpha_x, delta_x))
    return (
        oracle_law(f.field, names[0], (dm,), (dx, dm),
                   [(0, 1, F), (0, 1, AX), (1, 1, A)], [(0, 1, A), (0, 1, F)])
        + oracle_law(f.field, names[1], (dm,), (dx, dx, dm),
                     [(0, 1, F), (0, 1, DX), (2, 1, A)], [(0, 1, F), (1, 1, F), (0, 1, AX)])
    )


def oracle_morphism_laws(f, src, dst, attr):
    """The failures of f: src -> dst as a morphism of modules (``attr`` is
    ``"act"``) or comodules (``"coact"``): α_dst∘f = f∘α_src, then
    f(h·m) = h·f(m) or (id⊗f)∘ρ_src = ρ_dst∘f."""
    dh = src.over.dim
    F, AS, AD = f.constants(), src.alpha.constants(), dst.alpha.constants()
    S, D = getattr(src, attr).constants(), getattr(dst, attr).constants()
    out = oracle_law(f.field, "morphism_alpha_compat", (src.dim,), (dst.dim,),
                     [(0, 1, F), (0, 1, AD)], [(0, 1, AS), (0, 1, F)])
    if attr == "act":
        return out + oracle_law(f.field, "morphism_action_compat", (dh, src.dim), (dst.dim,),
                                [(0, 2, S), (0, 1, F)], [(1, 1, F), (0, 2, D)])
    return out + oracle_law(f.field, "morphism_coaction_compat", (src.dim,), (dh, dst.dim),
                            [(0, 1, S), (1, 1, F)], [(0, 1, F), (0, 1, D)])
