"""Sparse exact linear maps between tensor products of finite-dimensional spaces.

A ``LinearMap`` carries its domain and codomain as tuples of tensor-factor
dimensions and its nonzero entries in one canonical coordinate form: int64
``rows`` (codomain index) and ``cols`` (domain index) sorted by (column,
row), and an object array ``values`` of the nonzero Python-int numerators
at those positions over one positive denominator ``den`` that shares no
factor with all of them (over a prime field ``den`` is 1 and the values are
residues).  No zero is ever stored, so two maps are equal exactly when their
three arrays and ``den`` are.  Primitives compute in ints and multiply the
denominators; ``Field.reduce_array`` brings each result to lowest terms.
Multi-indices flatten row-major with the leftmost factor most significant;
this one convention is fixed globally and everything else (Kronecker
products, factor permutations, regrouping) is consistent with it.  The
primitives work on the nonzeros, so the coherence maps of the paper,
Kronecker products of structure-map powers and factor shuffles with almost
every cell zero, cost what they store.  Only ``compose`` of two maps that
form at least one product per result cell multiplies them as dense float64
matrices, and only where every partial sum is provably an integer below
2^53, so that the result is exact and its one stored form unchanged.  The
constructor
``LinearMap(field, dom, cod, dense)`` and the ``entries`` property are the
dense entry and exit points as (codomain, domain) matrices; they,
``column`` and ``inverse`` speak reduced field scalars (``int`` or
``Fraction``).  Structure constants of every kind (products, coproducts,
actions, coactions, R elements and sigma forms) go through one codec:
``from_constants`` reads a nested array indexed by the domain factors
first, then the codomain factors, and ``constants`` gives it back.  Maps
are immutable after construction.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from .errors import NotInvertibleError, ShapeError
from .fields import Field

Dims = tuple[int, ...]

# Products that ``compose`` materialises at once, rounded to whole columns of
# the result: bounds its working memory on dense maps.
COMPOSE_BLOCK = 4096

# ``compose`` multiplies densely once it would form at least ``DENSE_FILL``
# products per cell of the result.  Each float64 matrix product there takes at
# most ``DENSE_BLOCK`` multiply-adds: the outer map whole times a block of
# whole columns of the inner map.  That bounds every dense array by as many
# cells (512 KiB), and keeps each product on the calling thread: OpenBLAS
# hands products above 2^18 multiply-adds to its thread pool, whose wake-up
# took milliseconds per product on a shared 2-CPU host.
DENSE_FILL = 1
DENSE_BLOCK = 2**16

# Integers below this, and sums of them that stay below it, are exact in float64.
_EXACT = 2**53

# Flat positions ``col * nrows + row`` must fit in int64.
_MAX_CELLS = 2**62


def _as_dims(dims) -> Dims:
    dims = tuple(int(d) for d in dims)
    if any(d < 1 for d in dims):
        raise ShapeError(f"factor dimensions must be positive, got {dims}")
    return dims


def _size(dims: Dims) -> int:
    return math.prod(dims)


def _index(values) -> np.ndarray:
    return np.asarray(values, dtype=np.int64)


def _ones(field, n: int) -> np.ndarray:
    return np.full(n, field.one, dtype=object)


def _encode(scalars):
    """Exact scalars as int numerators over their least common denominator."""
    den = math.lcm(*(v.denominator for v in scalars))
    return np.array([int(v.numerator) * (den // v.denominator) for v in scalars], dtype=object), den


def _freeze(arr):
    arr.flags.writeable = False
    return arr


def _shuffle(flat, dims: Dims, perm) -> np.ndarray:
    """Flat indices over ``dims`` carried to the factor order ``perm``: factor
    ``t`` of the result is factor ``perm[t]`` of ``dims``."""
    multi = np.unravel_index(flat, dims)
    return np.ravel_multi_index(
        tuple(multi[p] for p in perm), tuple(dims[p] for p in perm)
    ).astype(np.int64)


def _run_starts(key) -> np.ndarray:
    """Start of every run of equal values in the sorted array ``key``."""
    if len(key) == 0:
        return _index([])
    return np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))


def _sum_runs(key, vals):
    """Sort by position ``key``, summing the values at a repeated position."""
    order = np.argsort(key, kind="stable")
    key, vals = key[order], vals[order]
    starts = _run_starts(key)
    if len(starts) < len(key):
        key, vals = key[starts], np.add.reduceat(vals, starts)
    return key, vals


class LinearMap:
    """An exact linear map ``⊗ dom -> ⊗ cod`` stored as sorted coordinates."""

    # ``rows`` (codomain index) and ``cols`` (domain index) are read-only int64
    # arrays sorted by (column, row); ``values`` holds the nonzero numerators
    # there, each over the common denominator ``den``
    __slots__ = ("field", "dom", "cod", "nrows", "ncols", "rows", "cols", "values", "den",
                 "_inverse")

    def __init__(self, field: Field, dom, cod, entries):
        """Build from a dense entry matrix indexed by (codomain, domain) index."""
        arr = np.asarray(entries, dtype=object)
        dom, cod = _as_dims(dom), _as_dims(cod)
        expect = (_size(cod), _size(dom))
        if arr.shape != expect:
            raise ShapeError(
                f"entry matrix has shape {arr.shape}, expected {expect} "
                f"for map {dom} -> {cod}"
            )
        cols, rows = np.nonzero(arr.T)
        self._set(field, dom, cod, _index(rows), _index(cols), *_encode(arr.T[cols, rows]))
        self._reduce()

    def _set(self, field, dom, cod, rows, cols, vals, den):
        self.field, self.dom, self.cod, self.den = field, dom, cod, den
        self.nrows, self.ncols = _size(cod), _size(dom)
        if self.nrows * self.ncols >= _MAX_CELLS:
            raise ShapeError(f"map {dom} -> {cod} has too many cells to index")
        self.rows, self.cols, self.values = _freeze(rows), _freeze(cols), _freeze(vals)
        self._inverse = None

    def _reduce(self):
        """Reduce the values through the field and drop the zeros among them."""
        vals, self.den = self.field.reduce_array(self.values, self.den)
        keep = vals != 0
        if not keep.all():
            self.rows, self.cols = _freeze(self.rows[keep]), _freeze(self.cols[keep])
        self.values = _freeze(vals[keep])

    @classmethod
    def _coo(cls, field, dom, cod, rows, cols, vals, den, reduce=True):
        """A map from numerators over ``den`` at coordinates in any order:
        sorted, the values at a repeated position summed, then reduced with
        zeros dropped (``reduce``)."""
        nrows = _size(cod)
        key, vals = _sum_runs(cols * nrows + rows, vals)
        cols, rows = np.divmod(key, nrows)
        out = cls._make(field, dom, cod, rows, cols, vals, den)
        if reduce:
            out._reduce()
        return out

    @classmethod
    def _make(cls, field, dom, cod, rows, cols, vals, den=1) -> "LinearMap":
        """A map from arrays already in canonical form."""
        out = object.__new__(cls)
        out._set(field, dom, cod, rows, cols, vals, den)
        return out

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, field, dims) -> "LinearMap":
        dims = _as_dims(dims)
        diag = np.arange(_size(dims), dtype=np.int64)
        return cls._make(field, dims, dims, diag, diag, _ones(field, len(diag)))

    @classmethod
    def zero(cls, field, dom, cod) -> "LinearMap":
        return cls._make(field, _as_dims(dom), _as_dims(cod), _index([]), _index([]),
                         np.empty(0, dtype=object))

    @classmethod
    def from_rows(cls, field, dom, cod, rows) -> "LinearMap":
        """Build from nested row data, normalizing every scalar through the field."""
        ent = np.array(
            [[field.normalize(x) for x in row] for row in rows], dtype=object
        )
        return cls(field, dom, cod, ent)

    @classmethod
    def basis_map(cls, field, images) -> "LinearMap":
        """The map sending basis vector ``e_j`` to ``e_{images[j]}``."""
        n = len(images)
        for i in images:
            if not 0 <= i < n:
                raise ShapeError(f"basis image {i} out of range for dimension {n}")
        return cls._make(field, (n,), (n,), _index(images), np.arange(n, dtype=np.int64),
                         _ones(field, n))

    @classmethod
    def permutation(cls, field, dims, perm) -> "LinearMap":
        """Factor shuffle: output factor ``t`` carries input factor ``perm[t]``."""
        dims = _as_dims(dims)
        perm = _check_perm(perm, len(dims))
        cod = tuple(dims[p] for p in perm)
        n = _size(dims)
        cols = np.arange(n, dtype=np.int64)
        rows = _shuffle(cols, dims, perm) if dims else cols
        return cls._make(field, dims, cod, rows, cols, _ones(field, n))

    @classmethod
    def from_constants(cls, field, constants, ndom: int) -> "LinearMap":
        """Build from structure constants: a nested array indexed by the
        ``ndom`` domain factors first, then the codomain factors, so that
        ``constants[i_1]..[i_r][k_1]..[k_s]`` is the coefficient of
        ``e_k_1⊗..⊗e_k_s`` in the image of ``e_i_1⊗..⊗e_i_r``.  Every scalar
        is normalized through the field; ragged nesting raises ``ShapeError``."""
        arr = np.array(constants, dtype=object)
        flat = arr.ravel().tolist()
        if any(isinstance(x, (list, tuple, np.ndarray)) for x in flat):
            raise ShapeError(f"structure constants are ragged below shape {arr.shape}")
        dom, cod = arr.shape[:ndom], arr.shape[ndom:]
        ent = np.array([field.normalize(x) for x in flat], dtype=object)
        return cls(field, dom, cod, ent.reshape(_size(dom), _size(cod)).T)

    # -- basic queries ------------------------------------------------

    def _scalars(self, nums) -> np.ndarray:
        """The reduced field scalars of numerators of this map."""
        if self.den == 1:
            return nums
        return np.array([self.field.normalize(Fraction(v, self.den)) for v in nums.tolist()],
                        dtype=object)

    def constants(self) -> list:
        """The nested structure constants of this map, domain indices first:
        the inverse of ``from_constants``."""
        return self.entries.T.reshape(self.dom + self.cod).tolist()

    @property
    def entries(self):
        """The dense (codomain, domain) matrix of field scalars, read-only;
        empty cells hold the shared int ``0``."""
        out = np.full((self.nrows, self.ncols), 0, dtype=object)
        out[self.rows, self.cols] = self._scalars(self.values)
        return _freeze(out)

    def column(self, j: int) -> tuple:
        lo, hi = np.searchsorted(self.cols, (j, j + 1))
        col = [0] * self.nrows
        for i, v in zip(self.rows[lo:hi].tolist(), self._scalars(self.values[lo:hi])):
            col[i] = v
        return tuple(col)

    def is_zero(self) -> bool:
        return len(self.values) == 0

    def is_identity(self) -> bool:
        return (
            self.dom == self.cod
            and self.den == 1
            and len(self.values) == self.nrows
            and bool(np.all(self.rows == self.cols))
            and bool(np.all(self.values == self.field.one))
        )

    def is_invertible(self) -> bool:
        if self.nrows != self.ncols:
            return False
        try:
            self.inverse()
        except NotInvertibleError:
            return False
        return True

    def __eq__(self, other):
        if other is self:
            return True
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.field == other.field
            and self.dom == other.dom
            and self.cod == other.cod
            and self.den == other.den
            and np.array_equal(self.cols, other.cols)
            and np.array_equal(self.rows, other.rows)
            and bool(np.array_equal(self.values, other.values))
        )

    def __repr__(self):
        return f"LinearMap({self.dom} -> {self.cod} over {self.field.descriptor})"

    # -- algebra ------------------------------------------------------

    def compose(self, other: "LinearMap") -> "LinearMap":
        """``self ∘ other``; defined when ``other.cod == self.dom``.

        The numerators are multiplied over the product of the two
        denominators by one of two exact routes, and the result is reduced.

        - Sorted: entry ``(k, j)`` of ``other`` meets every entry of column
          ``k`` of ``self``; the products are built for whole result columns
          at a time, about ``COMPOSE_BLOCK`` of them, and summed per position.
        - Dense: when the products number at least ``DENSE_FILL`` per result
          cell and ``self`` has at most ``DENSE_BLOCK`` cells, one float64
          matrix product per block of result columns, if the field proves every
          partial sum an integer below 2^53.  With ``n`` the inner dimension,
          that is ``n·(p-1)² < 2^53`` over GF(p), whose values are residues,
          and ``n·max|self.values|·max|other.values| < 2^53`` over Q."""
        if self.field != other.field:
            raise ShapeError("cannot compose maps over different fields")
        if other.cod != self.dom:
            raise ShapeError(
                f"compose mismatch: inner map has codomain {other.cod}, "
                f"outer map has domain {self.dom}"
            )
        g, f, field = self, other, self.field
        gcount = np.bincount(g.cols, minlength=g.ncols)
        counts = gcount[f.rows]  # products per entry of f
        ends = np.cumsum(counts)
        products = int(ends[-1]) if len(ends) else 0
        if (g.nrows * g.ncols <= DENSE_BLOCK
                and products >= DENSE_FILL * g.nrows * f.ncols
                and g.ncols * _magnitude(g) * _magnitude(f) < _EXACT):
            return _dense_compose(g, f)
        den = g.den * f.den
        gstart = np.cumsum(gcount) - gcount
        # cut f's entries where its column changes and the running product
        # count enters a new block
        firsts = _run_starts(f.cols)
        block = (ends - counts)[firsts] // COMPOSE_BLOCK
        cuts = np.append(firsts[_run_starts(block)], len(counts)).tolist()
        blocks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            cnt = counts[a:b]
            total = int(cnt.sum())
            if total == 0:
                continue
            inner = np.repeat(np.arange(a, b), cnt)
            offset = np.arange(total) - np.repeat(np.cumsum(cnt) - cnt, cnt)
            outer = gstart[f.rows[inner]] + offset
            key, prod = _sum_runs(
                f.cols[inner] * g.nrows + g.rows[outer], g.values[outer] * f.values[inner]
            )
            # reduce each block at once, so that neither zeros nor unreduced
            # residues pile up until the end
            prod, d = field.reduce_array(prod, den)
            keep = prod != 0
            blocks.append((key[keep], prod[keep], d))
        if not blocks:
            return LinearMap.zero(field, other.dom, self.cod)
        # blocks hold disjoint, increasing columns: the concatenation is sorted.
        # Brought to the lcm of their reduced denominators, they stay reduced.
        den = math.lcm(*(d for _, _, d in blocks))
        vals = [v if d == den else v * (den // d) for _, v, d in blocks]
        cols, rows = np.divmod(np.concatenate([k for k, _, _ in blocks]), g.nrows)
        return LinearMap._make(field, other.dom, self.cod, rows, cols, np.concatenate(vals), den)

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product acting factor-wise: ``(f⊗g)(x⊗y) = f(x)⊗g(y)``."""
        if self.field != other.field:
            raise ShapeError("cannot tensor maps over different fields")
        f, g = self, other
        rows = (f.rows[:, None] * g.nrows + g.rows[None, :]).ravel()
        cols = (f.cols[:, None] * g.ncols + g.cols[None, :]).ravel()
        vals = np.multiply.outer(f.values, g.values).ravel()
        return LinearMap._coo(
            self.field, f.dom + g.dom, f.cod + g.cod, rows, cols, vals, f.den * g.den
        )

    def scaled(self, c) -> "LinearMap":
        c = self.field.normalize(c)
        out = LinearMap._make(
            self.field, self.dom, self.cod, self.rows, self.cols,
            self.values * c.numerator, self.den * c.denominator,
        )
        out._reduce()
        return out

    def inverse(self) -> "LinearMap":
        """Exact two-sided inverse via Gauss-Jordan elimination, computed once
        per map; a singular map raises ``NotInvertibleError`` every time."""
        if self.ncols != self.nrows:
            raise ShapeError(f"cannot invert non-square map {self.dom} -> {self.cod}")
        if self._inverse is None:
            self._inverse = self._gauss_jordan()
        if isinstance(self._inverse, int):
            raise NotInvertibleError(
                f"map {self.dom} -> {self.cod} is not invertible", rank=self._inverse
            )
        return self._inverse

    def _gauss_jordan(self):
        """The inverse map, or the rank reached when the map is singular.

        Rows are dicts ``{column: value}`` of field scalars; ``holders[c]`` is
        the set of rows with a nonzero in column ``c``, so each pivot step
        touches only the rows it changes."""
        field, n = self.field, self.nrows
        a = [{} for _ in range(n)]
        holders = [set() for _ in range(n)]
        scalars = self._scalars(self.values).tolist()
        for r, c, v in zip(self.rows.tolist(), self.cols.tolist(), scalars):
            a[r][c] = v
            holders[c].add(r)
        inv = [{r: field.one} for r in range(n)]
        free = set(range(n))
        pivots = []
        for col in range(n):
            candidates = holders[col] & free
            if not candidates:
                continue
            piv = min(candidates)
            free.discard(piv)
            pivots.append(piv)
            c = a[piv][col]
            if c != field.one:
                cinv = field.inv(c)
                a[piv] = {k: field.mul(cinv, v) for k, v in a[piv].items()}
                inv[piv] = {k: field.mul(cinv, v) for k, v in inv[piv].items()}
            for r in list(holders[col]):
                if r != piv:
                    factor = a[r][col]
                    _eliminate(field, a[r], factor, a[piv], holders, r)
                    _eliminate(field, inv[r], factor, inv[piv])
        if len(pivots) < n:
            return len(pivots)
        # the pivot of column c sits in row pivots[c]: that row of the reduced
        # right-hand side is row c of the inverse
        rows, cols, vals = [], [], []
        for c, piv in enumerate(pivots):
            for j, v in inv[piv].items():
                rows.append(c)
                cols.append(j)
                vals.append(v)
        return LinearMap._coo(field, self.cod, self.dom, _index(rows), _index(cols), *_encode(vals))

    def power(self, k: int) -> "LinearMap":
        """``self^k`` of a square map by repeated squaring; negative via inverse."""
        if self.dom != self.cod:
            raise ShapeError(f"power of non-endomorphism {self.dom} -> {self.cod}")
        if k == 0:
            return LinearMap.identity(self.field, self.dom)
        base = self if k > 0 else self.inverse()
        out, e = None, abs(k)
        while True:
            if e & 1:
                out = base if out is None else out @ base
            e >>= 1
            if not e:
                return out
            base = base @ base

    # -- factor bookkeeping -------------------------------------------

    def with_shapes(self, dom, cod) -> "LinearMap":
        """Reinterpret factor splits without touching entries (row-major flattening
        is associative, so regrouping is the identity on data)."""
        dom = _as_dims(dom)
        cod = _as_dims(cod)
        if _size(dom) != self.ncols or _size(cod) != self.nrows:
            raise ShapeError(
                f"cannot regroup map {self.dom} -> {self.cod} as {dom} -> {cod}"
            )
        return LinearMap._make(self.field, dom, cod, self.rows, self.cols, self.values, self.den)

    def permute_codomain(self, perm) -> "LinearMap":
        """Compose with the factor shuffle on the codomain: output factor ``t``
        of the result carries factor ``perm[t]`` of this map's codomain."""
        perm = _check_perm(perm, len(self.cod))
        if perm == tuple(range(len(perm))):
            return self
        new_cod = tuple(self.cod[p] for p in perm)
        rows = _shuffle(self.rows, self.cod, perm)
        return LinearMap._coo(
            self.field, self.dom, new_cod, rows, self.cols, self.values, self.den, reduce=False
        )

    def permute_domain(self, perm) -> "LinearMap":
        """Precompose with the inverse factor shuffle: domain factor ``t`` of the
        result is factor ``perm[t]`` of this map's domain."""
        perm = _check_perm(perm, len(self.dom))
        if perm == tuple(range(len(perm))):
            return self
        new_dom = tuple(self.dom[p] for p in perm)
        cols = _shuffle(self.cols, self.dom, perm)
        return LinearMap._coo(
            self.field, new_dom, self.cod, self.rows, cols, self.values, self.den, reduce=False
        )


def _magnitude(m: LinearMap) -> int:
    """A positive bound on the absolute values of the numerators of ``m``:
    residues of GF(p) stay below p.  Being at least 1, it bounds every
    numerator of the other operand in the dense test of ``compose`` too."""
    if m.field.characteristic:
        return m.field.characteristic - 1
    return max(map(abs, m.values.tolist()), default=1)


def _dense_compose(g: LinearMap, f: LinearMap) -> LinearMap:
    """``g ∘ f`` by float64 matrix products, exact where ``compose`` sends
    it.  Each block of result columns is read in (column, row) order, so
    the nonzeros come out sorted."""
    k = g.ncols
    outer = np.zeros((g.nrows, k))
    outer[g.rows, g.cols] = g.values.astype(np.int64)
    width = DENSE_BLOCK // (g.nrows * k)
    rows, cols, vals = [], [], []
    for c0 in range(0, f.ncols, width):
        c1 = min(c0 + width, f.ncols)
        lo, hi = np.searchsorted(f.cols, (c0, c1))
        inner = np.zeros((k, c1 - c0))
        inner[f.rows[lo:hi], f.cols[lo:hi] - c0] = f.values[lo:hi].astype(np.int64)
        block = (outer @ inner).astype(np.int64).T
        c, r = np.nonzero(block)
        rows.append(r)
        cols.append(c + c0)
        vals.append(block[c, r])
    out = LinearMap._make(g.field, f.dom, g.cod, *map(np.concatenate, (rows, cols)),
                          np.concatenate(vals).astype(object), g.den * f.den)
    out._reduce()
    return out


def _eliminate(field, row, factor, pivot_row, holders=None, r=None):
    """``row -= factor * pivot_row`` on dict rows, dropping zeros and keeping
    the column holders of ``row`` (index ``r``) current when given."""
    for c, v in pivot_row.items():
        new = field.sub(row.get(c, field.zero), field.mul(factor, v))
        if new != 0:
            row[c] = new
            if holders is not None:
                holders[c].add(r)
        elif c in row:
            del row[c]
            if holders is not None:
                holders[c].discard(r)


def _check_perm(perm, k) -> tuple[int, ...]:
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(k)):
        raise ShapeError(f"{perm} is not a permutation of {k} factors")
    return perm
