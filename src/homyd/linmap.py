"""Sparse exact linear maps between tensor products of finite-dimensional spaces.

A ``LinearMap`` carries its domain and codomain as tuples of tensor-factor
dimensions and its nonzero entries in one canonical coordinate form: int64
``rows`` (codomain index) and ``cols`` (domain index) sorted by (column,
row), and an array ``values`` of the nonzero int numerators at those
positions over one positive denominator ``den`` that shares no factor with
all of them (over a prime field ``den`` is 1 and the values are residues).
``values`` has the field's ``dtype``: int64 over GF(p) with p < 2^31, whose
residues multiply below 2^62 in machine words, and Python ints (object)
otherwise.  A value is narrowed to int64 only once it is reduced.  No zero
is ever stored, so two maps are equal exactly when their three arrays and
``den`` are.  Primitives compute in ints and multiply the denominators;
``Field.reduce_array`` brings each result to lowest terms.
Only ``compose`` can meet one position twice and sum there; ``tensor`` and
the factor permutes place each entry at a distinct position and sort once.
A map is column-single when each of its columns holds at most one nonzero
(``cols`` strictly increasing), as permutations, identities, basis maps,
their Kronecker products and their scalings are.  On such operands the
products come out in canonical order: ``compose`` of two of them forms one
product per entry of the inner map, and ``tensor`` with one on the left and
``permute_codomain`` of one store their products without sorting them.
Multi-indices flatten row-major with the leftmost factor most significant;
this one convention is fixed globally and everything else (Kronecker
products, factor permutations, regrouping) is consistent with it.  The
primitives work on the nonzeros, so the coherence maps of the paper,
Kronecker products of structure-map powers and factor shuffles with almost
every cell zero, cost what they store.  Only ``compose`` of two maps that
form at least one product per result cell multiplies them as dense float64
matrices, and only where every partial sum is provably an integer below
2^53, so that the result is exact and its one stored form unchanged; over
GF(p) it reduces those sums in int64 and stores them so.
Before it allocates, a ``compose`` or ``tensor`` beyond ``MAX_PRODUCTS``
or ``MAX_STORED`` raises ``WorkLimitError``.  Inside a ``run_memo`` block,
which ``runner.run_tasks`` opens for one document, each ``memoised``
function computes once per argument values: the kernels of ``compose``,
``tensor``, the factor permutes and ``inverse`` here, and the builders of
``structures``, ``modules``, ``yd`` and ``quasitri``.  Maps compare by their
canonical form and structures by their kind, base and maps.  The
constructor ``LinearMap(field, dom, cod, dense)`` and the ``entries``
property are the dense entry and exit points as (codomain, domain)
matrices; they, ``column`` and ``inverse`` speak reduced field scalars
(Python ``int`` or ``Fraction``, never numpy scalars).  Structure constants
of every kind (products, coproducts, actions, coactions, R elements and
sigma forms) go through one codec:
``from_constants`` reads a nested array indexed by the domain factors
first, then the codomain factors, and ``constants`` gives it back; a map
that sends each basis tensor to one basis tensor is built from its index
images by ``basis_map``.  Maps are immutable after construction.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from fractions import Fraction
from functools import wraps

import numpy as np

from .errors import NotInvertibleError, ShapeError, WorkLimitError
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

# The work of one call: the products ``compose`` forms bound its time, and
# the nonzeros ``compose`` or ``tensor`` could store bound its memory.  A sum
# of at most MAX_PRODUCTS residues below 2^31 stays below 2^59 in int64.
MAX_PRODUCTS = 2**28
MAX_STORED = 2**22


# The results of the ``memoised`` calls of the running ``run_memo`` block, by
# ``(fn, *args)``; None outside one.
_table = None


@contextmanager
def run_memo():
    """Within this block each ``memoised`` function computes once per argument
    values.  The table is dropped when the block exits, however it exits."""
    global _table
    outer, _table = _table, {}
    try:
        yield
    finally:
        _table = outer


def _over_cap(values) -> bool:
    """Whether one of ``values`` is a map that stores more than ``COMPOSE_BLOCK``
    nonzeros, the size below which the fixed cost of a call dominates."""
    for v in values:  # a loop: ``any`` over a generator costs more on every call
        if isinstance(v, LinearMap) and len(v.values) > COMPOSE_BLOCK:
            return True
    return False


def memoised(fn):
    """``fn``, whose result inside ``run_memo`` is kept under the key
    ``(fn, *args)``.  A dict finds a key by its hash and takes it only when
    ``==`` holds on every part, so a hit is an exact equality of the
    arguments' values: a map's field, factors, ``den``, coordinates and
    numerators, a structure's kind, base and maps.  A call computes without
    being kept outside ``run_memo``, with keyword arguments, or on a map
    argument over the cap; a result that is, or is a tuple holding, a map
    over the cap is not kept, and an exception never is."""
    @wraps(fn)
    def cached(*args, **kwargs):
        if _table is None or kwargs or _over_cap(args):
            return fn(*args, **kwargs)
        key = (fn, *args)
        try:
            return _table[key]
        except KeyError:
            pass
        out = fn(*args)
        if not _over_cap(out if type(out) is tuple else (out,)):
            _table[key] = out
        return out

    return cached


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
    return np.full(n, field.one, dtype=field.dtype)


def _encode(scalars, dtype=object):
    """Exact scalars as int numerators over their least common denominator,
    in ``dtype``: a field's dtype only for scalars that are already reduced."""
    den = math.lcm(*(v.denominator for v in scalars))
    return np.array([int(v.numerator) * (den // v.denominator) for v in scalars], dtype=dtype), den


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
    """Start of every run of equal values in the sorted nonempty array ``key``."""
    return np.flatnonzero(np.concatenate(([True], key[1:] != key[:-1])))


def _value_key(values):
    """Stored values as a key that compares and hashes by value: the bytes of
    int64 residues, else the ints; one field stores one dtype."""
    return tuple(values.tolist()) if values.dtype == object else values.tobytes()


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
                 "_inverse", "_hash", "_single")

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
        self._inverse = self._hash = self._single = None

    def _reduce(self):
        """Reduce the values through the field and drop the zeros among them."""
        vals, self.den = self.field.reduce_array(self.values, self.den)
        keep = vals != 0
        if not keep.all():
            self.rows, self.cols = _freeze(self.rows[keep]), _freeze(self.cols[keep])
        self.values = _freeze(vals[keep])

    @classmethod
    def _make(cls, field, dom, cod, rows, cols, vals, den=1) -> "LinearMap":
        """A map from arrays already in canonical form."""
        out = object.__new__(cls)
        out._set(field, dom, cod, rows, cols, vals, den)
        return out

    @classmethod
    def _sorted(cls, field, dom, cod, rows, cols, vals, den=1) -> "LinearMap":
        """A map from reduced nonzero numerators over ``den`` at distinct
        coordinates in any order: one sort brings them to canonical form."""
        order = np.argsort(cols * _size(cod) + rows)
        return cls._make(field, dom, cod, rows[order], cols[order], vals[order], den)

    # -- construction -------------------------------------------------

    @classmethod
    def identity(cls, field, dims) -> "LinearMap":
        dims = _as_dims(dims)
        diag = np.arange(_size(dims), dtype=np.int64)
        return cls._make(field, dims, dims, diag, diag, _ones(field, len(diag)))

    @classmethod
    def zero(cls, field, dom, cod) -> "LinearMap":
        return cls._make(field, _as_dims(dom), _as_dims(cod), _index([]), _index([]),
                         np.empty(0, dtype=field.dtype))

    @classmethod
    def from_rows(cls, field, dom, cod, rows) -> "LinearMap":
        """Build from nested row data, normalizing every scalar through the field."""
        ent = np.array(
            [[field.normalize(x) for x in row] for row in rows], dtype=object
        )
        return cls(field, dom, cod, ent)

    @classmethod
    def basis_map(cls, field, images, dom=None, cod=None) -> "LinearMap":
        """The map ``⊗ dom -> ⊗ cod`` sending basis vector ``e_j`` to
        ``e_{images[j]}``, flat indices row-major; ``dom`` and ``cod`` are each
        ``(len(images),)`` when left out.  Structure maps that send each basis
        tensor to one basis tensor are built here, not from dense constants."""
        n = len(images)
        dom = (n,) if dom is None else _as_dims(dom)
        cod = (n,) if cod is None else _as_dims(cod)
        if _size(dom) != n:
            raise ShapeError(f"{n} basis images for domain {dom}, which has dimension {_size(dom)}")
        m = _size(cod)
        for i in images:
            if not 0 <= i < m:
                raise ShapeError(f"basis image {i} out of range for dimension {m}")
        return cls._make(field, dom, cod, _index(images), np.arange(n, dtype=np.int64),
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
        for i, v in zip(self.rows[lo:hi].tolist(), self._scalars(self.values[lo:hi]).tolist()):
            col[i] = v
        return tuple(col)

    def _column_single(self) -> bool:
        """Whether each column holds at most one nonzero, taken once."""
        if self._single is None:
            self._single = (len(self.cols) <= self.ncols
                            and bool((self.cols[1:] > self.cols[:-1]).all()))
        return self._single

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
        """Equality of the canonical forms: field, factors, ``den``, the int64
        bytes of ``cols`` and ``rows`` and the values, by ``_value_key``."""
        if other is self:
            return True
        if not isinstance(other, LinearMap):
            return NotImplemented
        return (
            self.field == other.field
            and self.dom == other.dom
            and self.cod == other.cod
            and self.den == other.den
            and self.cols.tobytes() == other.cols.tobytes()
            and self.rows.tobytes() == other.rows.tobytes()
            and _value_key(self.values) == _value_key(other.values)
        )

    def __hash__(self):
        """A hash of the stored arrays and ``den``, taken once: equal maps hash
        alike, and ``__eq__`` tells apart the rest."""
        if self._hash is None:
            self._hash = hash((self.den, self.rows.tobytes(), self.cols.tobytes(),
                               _value_key(self.values)))
        return self._hash

    def __repr__(self):
        return f"LinearMap({self.dom} -> {self.cod} over {self.field.descriptor})"

    # -- algebra ------------------------------------------------------

    def compose(self, other: "LinearMap") -> "LinearMap":
        """``self ∘ other``; defined when ``other.cod == self.dom``.

        The numerators are multiplied over the product of the two
        denominators by one of three exact routes, and the result is reduced.

        - Column-single: when both maps hold at most one nonzero per column,
          entry ``(k, j)`` of ``other`` meets the one entry of column ``k`` of
          ``self``, if any, and its product is the only one in column ``j``:
          one gather and one multiply, with nothing to sort or sum.
        - Sorted: entry ``(k, j)`` of ``other`` meets every entry of column
          ``k`` of ``self``, and the products are summed per position.  Up to
          ``COMPOSE_BLOCK`` products are built at once; more are built for
          whole result columns at a time, about ``COMPOSE_BLOCK`` of them.
          Int64 residues are reduced product by product before they are summed.
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
        out, work = self._compose(other)
        _check_work(*work)  # again, for a kept result
        return out

    @memoised
    def _compose(self, other):
        """``self ∘ other`` and the work it passed to ``_check_work``."""
        g, f, field = self, other, self.field
        if g._column_single() and f._column_single():
            return _single_compose(g, f)
        gcount = np.bincount(g.cols, minlength=g.ncols)
        counts = gcount[f.rows]  # products per entry of f
        ends = np.cumsum(counts)
        products = int(ends[-1]) if len(ends) else 0
        work = "compose", products, min(products, g.nrows * f.ncols)
        _check_work(*work)
        if (g.nrows * g.ncols <= DENSE_BLOCK
                and products >= DENSE_FILL * g.nrows * f.ncols
                and g.ncols * _magnitude(g) * _magnitude(f) < _EXACT):
            return _dense_compose(g, f), work
        if products == 0:
            return LinearMap.zero(field, other.dom, self.cod), work
        den = g.den * f.den
        gstart = np.cumsum(gcount) - gcount
        starts = ends - counts  # first product of each entry of f
        if products <= COMPOSE_BLOCK:
            cuts = [0, len(counts)]
        else:
            # cut f's entries where its column changes and the running
            # product count enters a new block
            firsts = _run_starts(f.cols)
            block = starts[firsts] // COMPOSE_BLOCK
            cuts = np.append(firsts[_run_starts(block)], len(counts)).tolist()
        blocks = []
        for a, b in zip(cuts[:-1], cuts[1:]):
            lo, hi = int(starts[a]), int(ends[b - 1])
            if lo == hi:
                continue
            inner = np.repeat(np.arange(a, b), counts[a:b])
            outer = gstart[f.rows[inner]] + np.arange(lo, hi) - starts[inner]
            prod = g.values[outer] * f.values[inner]
            if prod.dtype != object:
                # residues below 2^31: each product is below 2^62, and a cell
                # sums at most MAX_PRODUCTS residues, below 2^59
                prod %= field.p
            key, prod = _sum_runs(f.cols[inner] * g.nrows + g.rows[outer], prod)
            # reduce each block at once, so that neither zeros nor unreduced
            # residues pile up until the end
            prod, d = field.reduce_array(prod, den)
            keep = prod != 0
            blocks.append((key[keep], prod[keep], d))
        # blocks hold disjoint, increasing columns: the concatenation is sorted.
        # Brought to the lcm of their reduced denominators, they stay reduced.
        den = math.lcm(*(d for _, _, d in blocks))
        vals = [v if d == den else v * (den // d) for _, v, d in blocks]
        cols, rows = np.divmod(np.concatenate([k for k, _, _ in blocks]), g.nrows)
        out = LinearMap._make(field, other.dom, self.cod, rows, cols, np.concatenate(vals), den)
        return out, work

    def __matmul__(self, other):
        return self.compose(other)

    def tensor(self, other: "LinearMap") -> "LinearMap":
        """Kronecker product acting factor-wise: ``(f⊗g)(x⊗y) = f(x)⊗g(y)``.
        The products are placed in one sort, or in none when ``self`` is
        column-single: then the raveled outer product is already in (column,
        row) order."""
        if self.field != other.field:
            raise ShapeError("cannot tensor maps over different fields")
        out, work = self._tensor(other)
        _check_work(*work)  # again, for a kept result
        return out

    @memoised
    def _tensor(self, other):
        """``self ⊗ other`` and the work it passed to ``_check_work``."""
        f, g = self, other
        n = len(f.values) * len(g.values)
        work = "tensor", n, n
        _check_work(*work)
        rows = (f.rows[:, None] * g.nrows + g.rows[None, :]).ravel()
        cols = (f.cols[:, None] * g.ncols + g.cols[None, :]).ravel()
        # a product of nonzero field elements is nonzero: reduced, none drops
        vals, den = self.field.reduce_array(np.multiply.outer(f.values, g.values).ravel(),
                                            f.den * g.den)
        build = LinearMap._make if f._column_single() else LinearMap._sorted
        return build(self.field, f.dom + g.dom, f.cod + g.cod, rows, cols, vals, den), work

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
        per map, and inside ``run_memo`` once per value; a singular map raises
        ``NotInvertibleError`` every time."""
        if self.ncols != self.nrows:
            raise ShapeError(f"cannot invert non-square map {self.dom} -> {self.cod}")
        if self._inverse is None:
            self._inverse = self._gauss_jordan()
        if isinstance(self._inverse, int):
            raise NotInvertibleError(
                f"map {self.dom} -> {self.cod} is not invertible", rank=self._inverse
            )
        return self._inverse

    @memoised
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
        return self._sorted(field, self.cod, self.dom, _index(rows), _index(cols),
                            *_encode(vals, field.dtype))

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
        return self._permute_codomain(perm)

    @memoised
    def _permute_codomain(self, perm):
        """The shuffled map, sorted once; a column-single map needs no sort,
        since its rows move only within their own columns."""
        new_cod = tuple(self.cod[p] for p in perm)
        rows = _shuffle(self.rows, self.cod, perm)
        build = self._make if self._column_single() else self._sorted
        return build(self.field, self.dom, new_cod, rows, self.cols, self.values, self.den)

    def permute_domain(self, perm) -> "LinearMap":
        """Precompose with the inverse factor shuffle: domain factor ``t`` of the
        result is factor ``perm[t]`` of this map's domain."""
        perm = _check_perm(perm, len(self.dom))
        if perm == tuple(range(len(perm))):
            return self
        return self._permute_domain(perm)

    @memoised
    def _permute_domain(self, perm):
        new_dom = tuple(self.dom[p] for p in perm)
        cols = _shuffle(self.cols, self.dom, perm)
        return self._sorted(self.field, new_dom, self.cod, self.rows, cols, self.values,
                            self.den)


def _check_work(op: str, products: int, stored: int) -> None:
    if products > MAX_PRODUCTS or stored > MAX_STORED:
        raise WorkLimitError(f"{op} would form {products} products and store up to {stored} "
                             f"nonzeros, over the limits {MAX_PRODUCTS} and {MAX_STORED}")


def _single_compose(g: LinearMap, f: LinearMap):
    """``g ∘ f`` of two column-single maps and its work.  Each entry of ``f``
    whose row is a nonempty column of ``g`` forms one product, the only one
    in its column: the products come out sorted, and none is zero."""
    at, cols, vals = f.rows, f.cols, f.values
    if len(g.cols) < g.ncols:
        # the entry of g in each column, -1 in an empty one; otherwise entry k
        # of g is its column k
        pos = np.full(g.ncols, -1, dtype=np.int64)
        pos[g.cols] = np.arange(len(g.cols))
        at = pos[at]
        hit = at >= 0
        at, cols, vals = at[hit], cols[hit], vals[hit]
    work = "compose", len(at), len(at)
    _check_work(*work)
    vals, den = g.field.reduce_array(g.values[at] * vals, g.den * f.den)
    return LinearMap._make(g.field, f.dom, g.cod, g.rows[at], cols, vals, den), work


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
    the nonzeros come out sorted.  Over GF(p) the int64 sums become residues
    and stay int64, so only over Q, where they are boxed, does the field
    reduce the result."""
    k, p = g.ncols, g.field.characteristic
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
        if p:
            block %= p
        c, r = np.nonzero(block)
        rows.append(r)
        cols.append(c + c0)
        vals.append(block[c, r])
    out = LinearMap._make(g.field, f.dom, g.cod, *map(np.concatenate, (rows, cols)),
                          np.concatenate(vals).astype(g.field.dtype, copy=False), g.den * f.den)
    if not p:
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
