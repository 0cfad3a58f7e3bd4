"""Small hand-buildable fixtures shared across test modules."""

import sys
from pathlib import Path

from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

# Property tests replay the same examples on every run, and a slow example on
# a loaded machine is not a failure.
settings.register_profile("homyd", derandomize=True, deadline=None)
settings.load_profile("homyd")


def cyclic_mu(n):
    """Structure constants of the cyclic group algebra: e_i e_j = e_{i+j mod n}."""
    return [
        [[1 if k == (i + j) % n else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def grouplike_delta(n):
    """Diagonal coproduct: delta(e_i) = e_i ⊗ e_i."""
    return [
        [[1 if i == j == k else 0 for k in range(n)] for j in range(n)]
        for i in range(n)
    ]


def power_rows(n, k):
    """Matrix of the basis map e_j -> e_{k*j mod n} (columns are images)."""
    return [[1 if i == (k * j) % n else 0 for j in range(n)] for i in range(n)]


def identity_rows(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def perturbed(constants, index, bump=1):
    """Copy nested structure constants with one entry shifted by ``bump``."""
    import copy

    data = copy.deepcopy(constants)
    target = data
    for i in index[:-1]:
        target = target[i]
    target[index[-1]] = target[index[-1]] + bump
    return data


def carried_yd(yd, q):
    """The Yetter-Drinfeld module ``yd`` carried along the invertible change
    of basis ``q`` of its carrier, over the same base: its structure map
    becomes q∘α∘q^{-1}, dense when ``q`` is."""
    from homyd.linmap import LinearMap
    from homyd.yd import YDModule

    qi = q.inverse()
    ident_h = LinearMap.identity(yd.field, (yd.over.dim,))
    return YDModule(yd.over, q @ yd.act @ ident_h.tensor(qi),
                    ident_h.tensor(q) @ yd.coact @ qi, q @ yd.alpha @ qi)
