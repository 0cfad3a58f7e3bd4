import itertools
import math
import random
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, strategies as st

from homyd import linmap
from homyd.errors import NotInvertibleError, ShapeError
from homyd.fields import RATIONALS, PrimeField
from homyd.linmap import LinearMap
from homyd.reports import Failure, compare_maps

Q = RATIONALS


def random_map(field, dom, cod, rng):
    rows = []
    for _ in range(cod):
        if field is Q:
            rows.append([Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dom)])
        else:
            rows.append([rng.randrange(field.p) for _ in range(dom)])
    return LinearMap.from_rows(field, (dom,), (cod,), rows)


def naive_determinant(field, m):
    """Laplace expansion along the first row; independent of the package's
    elimination code."""
    n = m.nrows
    ent = m.entries
    def det(rows, cols):
        if len(rows) == 1:
            return ent[rows[0], cols[0]]
        total = field.zero
        r = rows[0]
        for pos, c in enumerate(cols):
            minor = det(rows[1:], cols[:pos] + cols[pos + 1:])
            term = field.mul(ent[r, c], minor)
            total = field.add(total, term if pos % 2 == 0 else field.neg(term))
        return total
    return det(tuple(range(n)), tuple(range(n)))


def test_compose_with_identity_is_identity_operation():
    rng = random.Random(7)
    f = random_map(Q, 3, 4, rng)
    assert LinearMap.identity(Q, (4,)).compose(f) == f
    assert f.compose(LinearMap.identity(Q, (3,))) == f


def test_swap_squared_is_identity_on_2_tensor_2():
    # the two 4x4 permutation matrices multiplied by hand give the identity
    s = LinearMap.permutation(Q, (2, 2), (1, 0))
    expected_swap = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[1, 0, 0, 0],
         [0, 0, 1, 0],
         [0, 1, 0, 0],
         [0, 0, 0, 1]],
    )
    assert s == expected_swap
    assert s.compose(s) == LinearMap.identity(Q, (2, 2))


def test_tensor_of_identities():
    ident = LinearMap.identity
    assert ident(Q, (2,)).tensor(ident(Q, (3,))) == ident(Q, (2, 3))


def test_tensor_of_scalars_multiplies():
    a = LinearMap.from_rows(Q, (1,), (1,), [[Fraction(3, 2)]])
    b = LinearMap.from_rows(Q, (1,), (1,), [[Fraction(4, 3)]])
    assert a.tensor(b).entries[0, 0] == 2


def test_tensor_of_basis_swap_with_itself():
    # Kronecker product expanded by hand: e_{ij} -> e_{(1-i)(1-j)}
    alpha = LinearMap.from_rows(Q, (2,), (2,), [[0, 1], [1, 0]])
    expected = LinearMap.from_rows(
        Q, (2, 2), (2, 2),
        [[0, 0, 0, 1],
         [0, 0, 1, 0],
         [0, 1, 0, 0],
         [1, 0, 0, 0]],
    )
    assert alpha.tensor(alpha) == expected


def test_invert_identity_and_scaled_identity():
    assert LinearMap.identity(Q, (3,)).inverse() == LinearMap.identity(Q, (3,))
    two_id = LinearMap.identity(Q, (3,)).scaled(2)
    half_id = LinearMap.identity(Q, (3,)).scaled(Fraction(1, 2))
    assert two_id.inverse() == half_id


def test_invert_cyclic_shift():
    # shift e_j -> e_{j+1 mod 3}; Gaussian elimination by hand gives shift by -1
    shift = LinearMap.basis_map(Q, [1, 2, 0])
    expected = LinearMap.basis_map(Q, [2, 0, 1])
    assert shift.inverse() == expected
    assert shift.compose(shift.inverse()) == LinearMap.identity(Q, (3,))
    assert shift.inverse().compose(shift) == LinearMap.identity(Q, (3,))


def test_invert_singular_reports_rank():
    m = LinearMap.from_rows(Q, (3,), (3,), [[1, 2, 3], [2, 4, 6], [0, 0, 1]])
    with pytest.raises(NotInvertibleError) as exc:
        m.inverse()
    assert exc.value.rank == 2
    assert not m.is_invertible()


def test_shape_mismatch_names_both_shapes():
    f = LinearMap.zero(Q, (2,), (3,))
    g = LinearMap.zero(Q, (4,), (5,))
    with pytest.raises(ShapeError) as exc:
        g.compose(f)
    assert "(3,)" in str(exc.value) and "(4,)" in str(exc.value)


@pytest.mark.parametrize("field", [Q, PrimeField(7)])
def test_compose_is_associative_on_random_maps(field):
    rng = random.Random(101)
    for _ in range(25):
        f = random_map(field, 2, 3, rng)
        g = random_map(field, 3, 2, rng)
        h = random_map(field, 2, 4, rng)
        assert h.compose(g.compose(f)) == h.compose(g).compose(f)


@pytest.mark.parametrize("field", [Q, PrimeField(7)])
def test_tensor_distributes_over_compose(field):
    rng = random.Random(202)
    for _ in range(25):
        f = random_map(field, 2, 3, rng)
        fp = random_map(field, 3, 2, rng)
        g = random_map(field, 2, 2, rng)
        gp = random_map(field, 4, 2, rng)
        lhs = f.tensor(g).compose(fp.tensor(gp))
        rhs = f.compose(fp).tensor(g.compose(gp))
        assert lhs == rhs


@pytest.mark.parametrize("field", [Q, PrimeField(7), PrimeField(11)])
def test_invertible_iff_nonzero_determinant(field):
    rng = random.Random(303)
    seen_singular = seen_invertible = False
    for _ in range(40):
        m = random_map(field, 3, 3, rng)
        d = naive_determinant(field, m)
        assert m.is_invertible() == (d != field.zero)
        seen_singular |= d == field.zero
        seen_invertible |= d != field.zero
        if d != field.zero:
            assert m.compose(m.inverse()) == LinearMap.identity(field, (3,))
    assert seen_invertible  # the sample exercised both branches
    assert seen_singular or field is Q  # singular draws are common mod p


def test_permutation_map_against_hand_example():
    p = LinearMap.permutation(Q, (2, 3), (1, 0))
    # e_{(i,j)} -> e_{(j,i)}: column i*3+j has a one in row j*2+i
    for i in range(2):
        for j in range(3):
            col = p.entries[:, i * 3 + j]
            assert col[j * 2 + i] == 1
            assert sum(1 for x in col if x) == 1
    assert p.dom == (2, 3) and p.cod == (3, 2)


def test_permute_codomain_matches_explicit_permutation_matrix():
    rng = random.Random(404)
    f = LinearMap.from_rows(
        Q, (5,), (2, 3, 2),
        [[rng.randint(-3, 3) for _ in range(5)] for _ in range(12)],
    )
    for perm in [(0, 1, 2), (1, 0, 2), (2, 1, 0), (1, 2, 0)]:
        explicit = LinearMap.permutation(Q, f.cod, perm).compose(f)
        assert f.permute_codomain(perm) == explicit


def test_permute_domain_undone_by_explicit_permutation():
    rng = random.Random(505)
    f = LinearMap.from_rows(
        Q, (2, 3, 2), (4,),
        [[rng.randint(-3, 3) for _ in range(12)] for _ in range(4)],
    )
    for perm in [(0, 1, 2), (1, 0, 2), (2, 0, 1)]:
        p = LinearMap.permutation(Q, f.dom, perm)
        assert f.permute_domain(perm).compose(p) == f


def test_with_shapes_regroups_without_touching_entries():
    f = LinearMap.from_rows(Q, (2, 3), (4,), [[i * 6 + j for j in range(6)] for i in range(4)])
    g = f.with_shapes((6,), (2, 2))
    assert g.dom == (6,) and g.cod == (2, 2)
    assert g.with_shapes((2, 3), (4,)) == f
    with pytest.raises(ShapeError):
        f.with_shapes((5,), (4,))


def test_power_and_vector_covector():
    shift = LinearMap.basis_map(Q, [1, 2, 0])
    assert shift.power(3) == LinearMap.identity(Q, (3,))
    assert shift.power(-1) == shift.inverse()
    assert shift.power(0) == LinearMap.identity(Q, (3,))
    v = LinearMap.from_constants(Q, [1, 2, 3], 0)
    w = LinearMap.from_constants(Q, [1, 1, 1], 1)
    assert w.compose(v).entries[0, 0] == 6
    assert v.dom == () and w.cod == ()


@pytest.mark.parametrize(
    "constants",
    [[[1, 2], [3]], [[[1], [2]], [[3], [4, 5]]], [[1, [2]], [3, 4]], [], [[], []]],
)
def test_from_constants_refuses_ragged_or_empty_input(constants):
    with pytest.raises(ShapeError):
        LinearMap.from_constants(Q, constants, 1)


def test_prime_field_entries_stay_reduced():
    f7 = PrimeField(7)
    a = LinearMap.from_rows(f7, (2,), (2,), [[6, 5], [4, 3]])
    b = a.compose(a)
    assert all(0 <= x < 7 for x in b.entries.flat)
    t = a.tensor(a)
    assert all(0 <= x < 7 for x in t.entries.flat)


def test_entries_are_immutable():
    m = LinearMap.identity(Q, (2,))
    with pytest.raises(ValueError):
        m.entries[0, 0] = 5


# -- differential properties against dense references ----------------------
#
# Each reference below works on ``.entries`` with explicit sums of field
# operations, independent of the sparse coordinate arithmetic.

# the largest prime with int64 residues, and the least prime above it, whose
# residues are Python ints
FIELDS = st.sampled_from([Q, PrimeField(2), PrimeField(5), PrimeField(7),
                          PrimeField(2**31 - 1), PrimeField(2147483659)])
DIMS = st.lists(st.integers(1, 3), min_size=1, max_size=3).map(tuple)


def scalars(field):
    if field is Q:
        # Fraction(k, 1) values exercise the reduction to ints; denominators
        # with common factors make maps whose common denominators differ and
        # whose products and sums cancel part of them
        return st.builds(Fraction, st.integers(-4, 4), st.sampled_from([1, 2, 3, 4, 6]))
    return st.integers(0, field.p - 1)


@st.composite
def maps(draw, field, dom, cod):
    """A map with any pattern of nonzeros: empty, sparse with empty columns,
    or dense."""
    rows, cols = math.prod(cod), math.prod(dom)
    cells = draw(st.sets(st.integers(0, rows * cols - 1), max_size=rows * cols))
    dense = np.full((rows, cols), 0, dtype=object)
    for c in cells:
        dense[c // cols, c % cols] = draw(scalars(field))
    return LinearMap(field, dom, cod, dense)


def flat(multi, dims):
    out = 0
    for i, d in zip(multi, dims):
        out = out * d + i
    return out


def unflat(index, dims):
    multi = []
    for d in reversed(dims):
        index, i = divmod(index, d)
        multi.append(i)
    return tuple(reversed(multi))


def multis(dims):
    return itertools.product(*(range(d) for d in dims))


def dense_of(m):
    return m.entries.tolist()


def ref_compose(field, g, f):
    ge, fe = g.entries, f.entries
    out = []
    for i in range(g.nrows):
        row = []
        for j in range(f.ncols):
            total = field.zero
            for k in range(f.nrows):
                total = field.add(total, field.mul(ge[i, k], fe[k, j]))
            row.append(total)
        out.append(row)
    return out


def ref_tensor(field, f, g):
    fe, ge = f.entries, g.entries
    return [
        [field.mul(fe[i // g.nrows, j // g.ncols], ge[i % g.nrows, j % g.ncols])
         for j in range(f.ncols * g.ncols)]
        for i in range(f.nrows * g.nrows)
    ]


def ref_permute_codomain(m, perm):
    ent, new_cod = m.entries, tuple(m.cod[p] for p in perm)
    out = [None] * m.nrows
    for multi in multis(m.cod):
        out[flat(tuple(multi[p] for p in perm), new_cod)] = list(ent[flat(multi, m.cod)])
    return out


def ref_permute_domain(m, perm):
    ent, new_dom = m.entries, tuple(m.dom[p] for p in perm)
    out = [[None] * m.ncols for _ in range(m.nrows)]
    for multi in multis(m.dom):
        j = flat(tuple(multi[p] for p in perm), new_dom)
        for i in range(m.nrows):
            out[i][j] = ent[i, flat(multi, m.dom)]
    return out


def ref_rank(field, m):
    rows = [list(r) for r in m.entries.tolist()]
    rank = 0
    for col in range(m.ncols):
        piv = next((r for r in range(rank, m.nrows) if rows[r][col] != 0), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = field.inv(rows[rank][col])
        rows[rank] = [field.mul(inv, x) for x in rows[rank]]
        for r in range(m.nrows):
            if r != rank and rows[r][col] != 0:
                c = rows[r][col]
                rows[r] = [field.sub(x, field.mul(c, y)) for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def assert_canonical(m):
    field = m.field
    key = m.cols * m.nrows + m.rows
    assert m.rows.dtype == np.int64 and m.cols.dtype == np.int64
    # int64 residues over GF(p) with p < 2^31, Python ints otherwise
    assert m.values.dtype == np.dtype(field.dtype) and len(m.values) == len(key)
    assert m.values.dtype == (np.int64 if field is not Q and field.p < 2**31 else object)
    assert np.all(np.diff(key) > 0)  # sorted by (column, row), no repeats
    # int numerators over one positive denominator, in lowest terms
    assert type(m.den) is int and m.den > 0
    assert math.gcd(m.den, *m.values.tolist()) == 1
    for v in m.values.tolist():
        assert type(v) is int and v != 0
        if field is not Q:
            assert 0 <= v < field.p
    assert field is Q or m.den == 1
    ent = m.entries
    # the exit point gives reduced scalars
    for v in ent.flat:
        assert type(v) is int or (field is Q and type(v) is Fraction and v.denominator != 1)
    for arr in (m.rows, m.cols, m.values, ent):
        assert not arr.flags.writeable
    stored = set(key.tolist())
    zero = id(0)
    for i, j in itertools.product(range(m.nrows), range(m.ncols)):
        assert (j * m.nrows + i in stored) or id(ent[i, j]) == zero


@st.composite
def composable(draw):
    field = draw(FIELDS)
    a, b, c = draw(DIMS), draw(DIMS), draw(DIMS)
    return draw(maps(field, b, c)), draw(maps(field, a, b))


@st.composite
def same_shape(draw):
    field = draw(FIELDS)
    dom, cod = draw(DIMS), draw(DIMS)
    return draw(maps(field, dom, cod)), draw(maps(field, dom, cod))


@st.composite
def one_map(draw):
    field = draw(FIELDS)
    return draw(maps(field, draw(DIMS), draw(DIMS)))


@given(composable(), st.sampled_from([1, 3, 8, linmap.COMPOSE_BLOCK]))
def test_compose_matches_dense_sums(pair, block):
    g, f = pair
    # small blocks cut the products at many column boundaries
    with mock.patch.object(linmap, "COMPOSE_BLOCK", block):
        out = g.compose(f)
    assert_canonical(out)
    assert (out.dom, out.cod) == (f.dom, g.cod)
    assert dense_of(out) == ref_compose(g.field, g, f)


def _column_products(g, f):
    """The products ``g ∘ f`` forms for each column of the result."""
    counts = np.bincount(g.cols, minlength=g.ncols)[f.rows]
    return np.bincount(f.cols, weights=counts, minlength=f.ncols).astype(np.int64)


# sparse pairs whose products outnumber a block of 8 many times over, a few
# result columns at a time or many at once; each inner map holds two
# nonzeros in some column, so that the column-single route does not take them
BLOCKED = [
    (LinearMap.basis_map(Q, [(3 * j) % 20 for j in range(20)]),
     LinearMap(Q, (20,), (20,), [[1 if i == 7 * j % 20 else 2 if i == (7 * j + 1) % 20 else 0
                                  for j in range(20)] for i in range(20)])),
    (random_map(Q, 6, 5, random.Random(11)), random_map(Q, 7, 6, random.Random(12))),
    (random_map(PrimeField(7), 9, 2, random.Random(13)),
     random_map(PrimeField(7), 3, 9, random.Random(14))),
]


@pytest.mark.parametrize("g, f", BLOCKED)
def test_sorted_compose_sums_at_most_one_block_of_whole_columns(g, f):
    expected = compose_by("sorted", g, f)[0]
    block = 8
    per_column = _column_products(g, f)
    assert per_column.sum() > 2 * block
    with mock.patch.object(linmap, "COMPOSE_BLOCK", block), \
            mock.patch.object(linmap, "_sum_runs", wraps=linmap._sum_runs) as sums:
        out = compose_by("sorted", g, f)[0]
    assert out == expected
    assert_canonical(out)
    summed = [len(c.args[0]) for c in sums.call_args_list]
    assert sum(summed) == per_column.sum()
    # a block ends with the column in which its count reaches the next
    # multiple of the block: it holds fewer than a block plus one column
    assert max(summed) < block + per_column.max()
    assert len(summed) > 1


def compose_by(route, g, f, dense_block=linmap.DENSE_BLOCK):
    """``g ∘ f`` by the route ``"dense"``, ``"sorted"`` or ``"single"``, and
    whether that route ran.  The first two switch the column-single route
    off and the dense route on or off; ``"single"`` switches the dense route
    off, and the column-single route runs where both maps are column-single."""
    fill = 0 if route == "dense" else math.inf
    single = LinearMap._column_single
    with mock.patch.object(linmap, "DENSE_FILL", fill), \
            mock.patch.object(linmap, "DENSE_BLOCK", dense_block), \
            mock.patch.object(LinearMap, "_column_single",
                              lambda m: route == "single" and single(m)), \
            mock.patch.object(linmap, "_dense_compose", wraps=linmap._dense_compose) as dense, \
            mock.patch.object(linmap, "_single_compose", wraps=linmap._single_compose) as one:
        out = g.compose(f)
    ran = {"dense": dense.called, "single": one.called,
           "sorted": not (dense.called or one.called)}
    return out, ran[route]


def float_exact(g, f):
    """Whether every partial sum of ``g ∘ f`` is provably an integer below
    2^53, as the dense route requires; the numerators over Q drawn here are
    small enough always."""
    return g.field is Q or g.ncols * (g.field.p - 1) ** 2 < 2**53


@given(composable(), st.sampled_from([4, 64, linmap.DENSE_BLOCK]))
def test_every_compose_route_matches_dense_sums(pair, dense_block):
    g, f = pair
    want = ref_compose(g.field, g, f)
    # a small budget splits the inner map into blocks of few columns, or
    # leaves the outer map too large for the dense route
    for route in ("dense", "sorted", "single"):
        with mock.patch.object(np, "zeros", wraps=np.zeros) as zeros:
            out, ran = compose_by(route, g, f, dense_block)
        dense = route == "dense" and g.nrows * g.ncols <= dense_block and float_exact(g, f)
        if route == "dense":
            assert ran == dense
        elif route == "single":
            assert ran == (g._column_single() and f._column_single())
        else:
            assert ran
        # the outer map whole, then blocks of the inner one: no float64 product
        # takes more than dense_block multiply-adds
        shapes = [c.args[0] for c in zeros.call_args_list]
        assert shapes[:1] == ([(g.nrows, g.ncols)] if dense else [])
        assert all(g.nrows * g.ncols * width <= dense_block for _, width in shapes[1:])
        assert_canonical(out)
        assert (out.dom, out.cod) == (f.dom, g.cod)
        assert dense_of(out) == want


def _full(field, rows, cols, value):
    return LinearMap.from_rows(field, (cols,), (rows,), [[value] * cols] * rows)


# k·(p-1)² < 2^53 for the first prime at inner dimension 3, not for the second
@pytest.mark.parametrize("p, dense", [(54794149, True), (54794197, False)])
def test_dense_route_over_gf_p_runs_just_below_the_float_bound(p, dense):
    field = PrimeField(p)
    assert (3 * (p - 1) ** 2 < 2**53) == dense
    # the sum 3·(p-2)² is odd and, for the first prime, just below 2^53: a
    # rounded sum would lose its last bit
    g, f = _full(field, 2, 3, p - 2), _full(field, 3, 2, p - 2)
    out, ran = compose_by("dense", g, f)
    assert ran == dense
    assert_canonical(out)
    assert out == _full(field, 2, 2, 3 * (p - 2) ** 2 % p)
    assert dense_of(out) == ref_compose(field, g, f)


# the largest prime with int64 residues, the least prime above it, and the
# largest prime below 2^32, whose squared residues would overflow int64
@pytest.mark.parametrize("p, dtype", [(2**31 - 1, np.int64), (2147483659, object),
                                      (4294967291, object)])
def test_sorted_compose_and_tensor_at_the_int64_bound_stay_exact(p, dtype):
    field = PrimeField(p)
    assert field.dtype == dtype
    # every product (p-1)² ≡ 1 is below 2^62 at the first prime, where three
    # of them would sum past 2^63 unless each is reduced before the sum
    g, f = _full(field, 2, 3, p - 1), _full(field, 3, 2, p - 1)
    out, ran = compose_by("sorted", g, f)
    assert ran
    assert_canonical(out)
    assert out == _full(field, 2, 2, 3)
    out = g.tensor(f)
    assert_canonical(out)
    assert dense_of(out) == [[1] * 6] * 6


@pytest.mark.parametrize("p", [7, 2**31 - 1, 2147483659])
def test_unreduced_and_huge_scalars_are_reduced_before_they_are_stored(p):
    field, big = PrimeField(p), 10**30
    built = [
        LinearMap(field, (2,), (1,), [[big, -big]]),
        LinearMap.from_rows(field, (2,), (1,), [[big, -big]]),
        LinearMap.from_constants(field, [[big], [-big]], 1),
        LinearMap.from_rows(field, (2,), (1,), [[1, -1]]).scaled(big),
    ]
    for m in built:
        assert_canonical(m)
        assert dense_of(m) == [[big % p, -big % p]]
    # a Fraction entry means its residue, however large its terms
    m = LinearMap(field, (2,), (1,), np.array([[Fraction(1, 2), Fraction(big + 1, 3)]],
                                              dtype=object))
    assert_canonical(m)
    assert dense_of(m) == [[pow(2, -1, p), (big + 1) * pow(3, -1, p) % p]]


@pytest.mark.parametrize("field", [PrimeField(11), PrimeField(2**31 - 1)])
def test_scalars_leave_a_prime_field_map_as_python_ints(field):
    m = LinearMap.from_rows(field, (2,), (2,), [[3, 0], [5, 7]])
    report = compare_maps("law", m, m.scaled(2))
    assert str(report.failures[0]) == "law at (0,): lhs=(3, 5) rhs=(6, 10)"
    scalars = [*m.entries.flat, *m.inverse().entries.flat, *m.column(0), *m.column(1),
               *itertools.chain(*m.constants())]
    scalars += [x for f in report.failures for x in f.lhs + f.rhs]
    assert all(type(x) is int for x in scalars)


# odd numerators a of g and b of f with 3·a·b just below and just above 2^53
@pytest.mark.parametrize("a, b, dense", [(2**26 + 9, 44739231, True),
                                         (2**26 + 9, 44739237, False)])
def test_dense_route_over_q_runs_just_below_the_float_bound(a, b, dense):
    assert (3 * a * b < 2**53) == dense
    # numerators over 5 and 7; those of f are negative, so that only their
    # absolute values bound the sums
    g = LinearMap.from_rows(Q, (3,), (2,), [[Fraction(a, 5), Fraction(-a, 5), Fraction(a, 5)]] * 2)
    f = _full(Q, 3, 2, Fraction(-b, 7))
    assert (g.den, f.den) == (5, 7)
    out, ran = compose_by("dense", g, f)
    assert ran == dense
    assert_canonical(out)
    assert out == _full(Q, 2, 2, Fraction(-a * b, 35))
    assert dense_of(out) == ref_compose(Q, g, f)


@given(FIELDS.flatmap(lambda fd: st.tuples(
    maps(fd, (2,), (3,)) | maps(fd, (1, 2), (2,)), maps(fd, (3,), (2, 1)))))
def test_tensor_matches_dense_products(pair):
    f, g = pair
    out = f.tensor(g)
    assert_canonical(out)
    assert (out.dom, out.cod) == (f.dom + g.dom, f.cod + g.cod)
    assert dense_of(out) == ref_tensor(f.field, f, g)


@given(one_map(), st.data())
def test_permutes_match_dense_shuffles(m, data):
    perm = data.draw(st.permutations(range(len(m.cod))))
    out = m.permute_codomain(perm)
    assert_canonical(out)
    assert out.cod == tuple(m.cod[p] for p in perm)
    assert dense_of(out) == ref_permute_codomain(m, perm)
    perm = data.draw(st.permutations(range(len(m.dom))))
    out = m.permute_domain(perm)
    assert_canonical(out)
    assert out.dom == tuple(m.dom[p] for p in perm)
    assert dense_of(out) == ref_permute_domain(m, perm)


# factor dims that may be empty: () is the one-dimensional ground space
FACTOR_DIMS = st.lists(st.integers(1, 3), max_size=3).map(tuple)


@given(FIELDS, FACTOR_DIMS, FACTOR_DIMS, st.data())
def test_basis_map_with_factor_dims_matches_its_dense_constants(field, dom, cod, data):
    n, m = math.prod(dom), math.prod(cod)
    images = data.draw(st.lists(st.integers(0, m - 1), min_size=n, max_size=n))
    dense = np.full((n, m), 0, dtype=object)
    dense[np.arange(n), images] = 1
    out = LinearMap.basis_map(field, images, dom, cod)
    assert_canonical(out)
    assert out == LinearMap.from_constants(field, dense.reshape(dom + cod).tolist(), len(dom))


def test_basis_map_keeps_empty_factor_lists():
    point = LinearMap.basis_map(Q, [0], (), ())
    assert (point.dom, point.cod) == ((), ()) and point.entries.tolist() == [[1]]
    counit = LinearMap.basis_map(Q, [0, 0, 0], cod=())
    assert (counit.dom, counit.cod) == ((3,), ()) and counit.entries.tolist() == [[1, 1, 1]]


@pytest.mark.parametrize(
    "args, message",
    [
        (([0, 4], (2,), (2, 2)), "basis image 4 out of range for dimension 4"),
        (([0, 1, 2], (2, 2), (3,)), "3 basis images for domain (2, 2), which has dimension 4"),
        # the one-argument form keeps its message
        (([0, 3, 1],), "basis image 3 out of range for dimension 3"),
    ],
)
def test_basis_map_refusals_name_their_cause(args, message):
    with pytest.raises(ShapeError) as exc:
        LinearMap.basis_map(Q, *args)
    assert str(exc.value) == message


def test_tensor_comes_out_reduced():
    half = LinearMap.from_rows(Q, (1,), (1,), [[Fraction(1, 2)]])
    two_thirds = LinearMap.from_rows(Q, (1,), (1,), [[Fraction(2, 3)]])
    out = half.tensor(two_thirds)
    assert_canonical(out)
    assert (out.values.tolist(), out.den) == ([1], 3)
    assert out.entries.tolist() == [[Fraction(1, 3)]]


def nonzero_scalars(field):
    return scalars(field).filter(lambda v: v != 0)


@st.composite
def column_single_maps(draw, field, dom, cod):
    """A map with at most one nonzero in each column: one in every column (a
    basis map, a permutation or a scaling of one), one in some columns, or
    none at all."""
    nrows, ncols = math.prod(cod), math.prod(dom)
    fill = draw(st.sampled_from(["every", "some", "none"]))
    row = {"every": st.integers(0, nrows - 1),
           "some": st.none() | st.integers(0, nrows - 1), "none": st.none()}[fill]
    dense = np.full((nrows, ncols), 0, dtype=object)
    for j, i in enumerate(draw(st.lists(row, min_size=ncols, max_size=ncols))):
        if i is not None:
            dense[i, j] = draw(nonzero_scalars(field))
    return LinearMap(field, dom, cod, dense)


@st.composite
def column_single_triples(draw):
    """Composable column-single maps ``g``, ``f`` and a map of any pattern."""
    field = draw(FIELDS)
    a, b, c = draw(DIMS), draw(DIMS), draw(DIMS)
    return (draw(column_single_maps(field, b, c)), draw(column_single_maps(field, a, b)),
            draw(maps(field, draw(DIMS), draw(DIMS))))


@given(column_single_triples(), st.data())
def test_column_single_route_matches_dense_references(triple, data):
    g, f, other = triple
    assert g._column_single() and f._column_single()
    want = ref_compose(g.field, g, f)
    for route in ("single", "sorted", "dense"):
        out, ran = compose_by(route, g, f)
        assert ran == (route != "dense" or float_exact(g, f))
        assert_canonical(out)
        assert (out.dom, out.cod) == (f.dom, g.cod)
        assert dense_of(out) == want
    perm = data.draw(st.permutations(range(len(g.cod))))
    with mock.patch.object(np, "argsort", side_effect=AssertionError):
        outs = [g.tensor(f), g.tensor(other), g.permute_codomain(perm)]
    for out in outs:
        assert_canonical(out)
    assert dense_of(outs[0]) == ref_tensor(g.field, g, f)
    assert dense_of(outs[1]) == ref_tensor(g.field, g, other)
    assert dense_of(outs[2]) == ref_permute_codomain(g, perm)


def test_column_single_compose_and_tensor_neither_sort_nor_sum():
    perm = LinearMap.permutation(Q, (2, 3), (1, 0))
    basis = LinearMap.basis_map(Q, [1, 1, 0, 2, 5, 4], (6,), (2, 3))
    with mock.patch.object(linmap, "_sum_runs", side_effect=AssertionError), \
            mock.patch.object(np, "argsort", side_effect=AssertionError):
        composed, tensored = perm @ basis, basis.tensor(basis)
    assert_canonical(composed)
    assert dense_of(composed) == ref_compose(Q, perm, basis)
    assert_canonical(tensored)
    assert dense_of(tensored) == ref_tensor(Q, basis, basis)


@given(composable(), st.data())
def test_tensor_and_permutes_sort_without_summing(pair, data):
    # their positions are distinct by construction: nothing is summed
    g, f = pair
    codomain = data.draw(st.permutations(range(len(g.cod))))
    domain = data.draw(st.permutations(range(len(g.dom))))
    with mock.patch.object(linmap, "_sum_runs", side_effect=AssertionError):
        outs = [g.tensor(f), g.permute_codomain(codomain), g.permute_domain(domain)]
    for out in outs:
        assert_canonical(out)
    assert dense_of(outs[0]) == ref_tensor(g.field, g, f)
    assert dense_of(outs[1]) == ref_permute_codomain(g, codomain)
    assert dense_of(outs[2]) == ref_permute_domain(g, domain)


@given(FIELDS.flatmap(lambda fd: DIMS.flatmap(lambda d: maps(fd, d, d))))
def test_inverse_matches_dense_rank(m):
    field, n = m.field, m.nrows
    rank = ref_rank(field, m)
    identity_rows = [[field.one if i == j else 0 for j in range(n)] for i in range(n)]
    if rank == n:
        inv = m.inverse()
        assert_canonical(inv)
        assert (inv.dom, inv.cod) == (m.cod, m.dom)
        assert ref_compose(field, m, inv) == identity_rows
        assert ref_compose(field, inv, m) == identity_rows
        assert m.is_invertible() and m.inverse() is inv
    else:
        with pytest.raises(NotInvertibleError) as exc:
            m.inverse()
        assert exc.value.rank == rank
        assert not m.is_invertible()


@given(same_shape(), st.data())
def test_sums_and_scaling_match_dense_cells(pair, data):
    a, _ = pair
    field = a.field
    c = data.draw(scalars(field))
    out, ae = a.scaled(c), a.entries
    assert_canonical(out)
    ent = out.entries
    assert all(ent[i, j] == field.mul(field.normalize(c), ae[i, j])
               for i, j in itertools.product(range(a.nrows), range(a.ncols)))


@given(one_map())
def test_with_shapes_keeps_dense_entries(m):
    flat_map = m.with_shapes((m.ncols,), (m.nrows,))
    assert_canonical(flat_map)
    assert dense_of(flat_map) == dense_of(m)
    assert flat_map.with_shapes(m.dom, m.cod) == m


@given(same_shape())
def test_maps_are_equal_exactly_when_their_dense_cells_are_and_then_hash_alike(pair):
    f, g = pair
    rebuilt = LinearMap(f.field, f.dom, f.cod, f.entries)
    assert rebuilt == f and hash(rebuilt) == hash(f)
    assert (f == g) == (f.field == g.field and dense_of(f) == dense_of(g))
    if f == g:
        assert hash(f) == hash(g)
    # the same arrays under other factors or over another field are another map
    flat_map = f.with_shapes((f.ncols,), (f.nrows,))
    assert (flat_map == f) == ((flat_map.dom, flat_map.cod) == (f.dom, f.cod))
    other = PrimeField(11) if f.field is Q else Q
    assert LinearMap._make(other, f.dom, f.cod, f.rows, f.cols, f.values, f.den) != f


def test_a_map_equals_itself_without_reading_its_arrays():
    m = LinearMap.identity(Q, (3,))
    twin = LinearMap.identity(Q, (3,))
    hash(m)
    m.rows = m.cols = m.values = None
    assert m == m
    assert m in {m: 1}
    with pytest.raises(AttributeError):
        m == twin


@given(same_shape(), st.data())
def test_compare_maps_matches_dense_columns(pair, data):
    a, b = pair
    if data.draw(st.booleans()):
        b = a  # equal maps report nothing
    ae, be = a.entries, b.entries
    expected = tuple(
        Failure("law", unflat(j, a.dom), tuple(ae[:, j]), tuple(be[:, j]))
        for j in range(a.ncols)
        if list(ae[:, j]) != list(be[:, j])
    )
    report = compare_maps("law", a, b)
    assert report.failures == expected
    assert report.passed == (a == b)


@given(one_map())
def test_dense_round_trip_is_identity(m):
    assert_canonical(m)
    again = LinearMap(m.field, m.dom, m.cod, m.entries)
    assert again == m and again.den == m.den
    assert LinearMap.from_constants(m.field, m.constants(), len(m.dom)) == m
    assert [m.column(j) for j in range(m.ncols)] == [tuple(c) for c in m.entries.T.tolist()]


def test_common_denominator_is_the_lcm_of_the_reduced_ones():
    m = LinearMap.from_rows(Q, (3,), (2,), [[Fraction(1, 2), 3, Fraction(-5, 6)],
                                            [Fraction(2, 4), 0, 7]])
    assert m.den == 6 and m.values.tolist() == [3, 3, 18, -5, 42]
    assert m.entries.tolist() == [[Fraction(1, 2), 3, Fraction(-5, 6)], [Fraction(1, 2), 0, 7]]
    assert m.scaled(6).den == 1 and m.scaled(Fraction(1, 5)).den == 30
    # blocks of one column reduce to denominators 2 and 3 apart; joined,
    # they come to 6 and stay in lowest terms
    diag = LinearMap.from_rows(Q, (2,), (2,), [[Fraction(1, 2), 0], [0, Fraction(2, 3)]])
    with mock.patch.object(linmap, "COMPOSE_BLOCK", 1):
        out = LinearMap.identity(Q, (2,)).compose(diag)
    assert out == diag and out.values.tolist() == [3, 4] and out.den == 6
    assert diag.compose(diag.scaled(6)) == LinearMap.from_rows(Q, (2,), (2,), [[Fraction(3, 2), 0],
                                                                               [0, Fraction(8, 3)]])
    half = LinearMap.identity(Q, (2,)).scaled(Fraction(1, 2))
    assert not half.is_identity()  # numerators 1, den 2
    assert LinearMap.from_rows(Q, (1,), (1,), [[Fraction(4, 4)]]).is_identity()
    assert diag.scaled(0).is_zero() and diag.scaled(0).den == 1


def test_prime_field_maps_keep_denominator_one():
    f7 = PrimeField(7)
    # a Fraction entry means its residue: 1/2 = 4 mod 7
    m = LinearMap(f7, (2,), (1,), np.array([[Fraction(1, 2), 3]], dtype=object))
    assert m.den == 1 and m.entries.tolist() == [[4, 3]]
    assert_canonical(m.scaled(5).tensor(m))


@given(FIELDS.flatmap(lambda fd: DIMS.flatmap(lambda d: maps(fd, d, d))), st.integers(-3, 4))
def test_power_matches_dense_products(m, k):
    field, n = m.field, m.nrows
    identity_rows = [[field.one if i == j else 0 for j in range(n)] for i in range(n)]
    positive = LinearMap.from_rows(field, m.dom, m.cod, identity_rows)
    for _ in range(abs(k)):
        positive = LinearMap.from_rows(field, m.dom, m.cod, ref_compose(field, positive, m))
    if k < 0 and ref_rank(field, m) < n:
        with pytest.raises(NotInvertibleError):
            m.power(k)
        return
    out = m.power(k)
    assert_canonical(out)
    if k >= 0:
        assert dense_of(out) == dense_of(positive)
    else:
        assert ref_compose(field, out, positive) == identity_rows
        assert ref_compose(field, positive, out) == identity_rows


@given(same_shape(), st.data())
def test_compare_maps_over_different_denominators(pair, data):
    # a map scaled by a fraction has another denominator, and equal
    # numerators may then stand for different values
    a, b = pair
    c = data.draw(scalars(a.field))
    if c != 0:
        b = a.scaled(c)
    ae, be = a.entries, b.entries
    expected = [j for j in range(a.ncols) if list(ae[:, j]) != list(be[:, j])]
    report = compare_maps("law", a, b)
    assert [flat(f.index, a.dom) for f in report.failures] == expected
    assert all(f.lhs == tuple(ae[:, flat(f.index, a.dom)]) for f in report.failures)
    assert report.passed == (a == b)
