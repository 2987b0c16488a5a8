"""Low-level kernels for 2x2 matrices over Z/m packed into single integers.

A matrix [[a, b], [c, d]] with entries reduced mod m (m <= 256) is stored as
``a | b<<8 | c<<16 | d<<24``, below 2^32.  This is the only matrix
representation: a single matrix is a Python int, and element sets are sorted
uint32 numpy arrays of packed values, which lets the breadth-first closure
run over flat arrays.  No other module names the dtype of a packed array or
of a key.  Scalar ``mul``/``inv``/``det``/``neg`` serve single matrices, and
``order_array`` is the one element-order routine.  There is no bulk
inverse: ``conjugate_set``, the one conjugation routine, inverts each
generator once with the scalar ``inv``.

Everything here is plain numpy: the closure multiplies a whole frontier by
each generator at once, and conjugation maps a stacked layer of element
sets by every generator at once.
Bulk arithmetic unpacks the entries to int32 and reduces with a bit mask
when m is a power of 2, with % otherwise.

Set operations are sort-based: ``unique`` sorts and keeps each value that
differs from the one before it (numpy 2's hashing ``np.unique`` is about ten
times slower on a few thousand values).  Binary search (``index_of``,
``contains``, ``in_sorted``) serves lookups of a scalar or of a batch: the
closure frontiers and the coset candidates of ``coset_closure``, the orbit
and class walks, the genus class counts and the greedy generator picks.
``np.searchsorted`` of a uint32 set and a Python int or an int64 array first
copies the set to int64, so ``index_of`` casts the scalar.  Where a whole
array the size of the set is looked up in it, as in the Frattini layers and
the Frattini sweep, sorting is cheaper than searching: ``keyed`` packs each
value with a uint32 label into one key, value in the high half, so a sorted
key array is sorted by value, and two labelled sets are equal exactly when
their sorted keys are.  ``key_values`` and ``key_labels`` split keys back.
"""

from __future__ import annotations

import numpy as np

# There is no JIT back-end; perfbench/worker.py still records this flag as
# host info, so it stays until the benchmark stops reading it.
_USE_NUMBA = False

MAX_PACK_MODULUS = 256

ELEMENT_BUDGET = 1 << 25  # elements in the largest closure or lift

IDENTITY = 1 | (1 << 24)


class BudgetExceeded(RuntimeError):
    """A closure, lift, orbit or table grew past its fixed budget."""


def pack(a: int, b: int, c: int, d: int) -> int:
    return a | (b << 8) | (c << 16) | (d << 24)


def unpack(x: int) -> tuple[int, int, int, int]:
    return (x & 255, (x >> 8) & 255, (x >> 16) & 255, (x >> 24) & 255)


def mul(x: int, y: int, m: int) -> int:
    """Packed product of two packed matrices mod m."""
    ax, bx, cx, dx = unpack(x)
    ay, by, cy, dy = unpack(y)
    return pack(
        (ax * ay + bx * cy) % m,
        (ax * by + bx * dy) % m,
        (cx * ay + dx * cy) % m,
        (cx * by + dx * dy) % m,
    )


def det(x: int, m: int) -> int:
    a, b, c, d = unpack(x)
    return (a * d - b * c) % m


def inv(x: int, m: int) -> int:
    """Packed inverse; raises ValueError when det is not a unit mod m."""
    a, b, c, d = unpack(x)
    dt = (a * d - b * c) % m
    try:
        di = pow(dt, -1, m)
    except ValueError:
        raise ValueError(f"matrix {unpack(x)} is not invertible mod {m}") from None
    return pack((d * di) % m, (-b * di) % m, (-c * di) % m, (a * di) % m)


def neg(x: int, m: int) -> int:
    a, b, c, d = unpack(x)
    return pack((-a) % m, (-b) % m, (-c) % m, (-d) % m)


# ---------------------------------------------------------------------------
# vectorized (numpy) operations on packed arrays
# ---------------------------------------------------------------------------


def as_packed(values) -> np.ndarray:
    """Packed ints, or arrays of them, as a packed array (no copy if one)."""
    return np.asarray(values, dtype=np.uint32)


def big_endian(xs: np.ndarray) -> np.ndarray:
    """xs as big-endian uint32: the byte format of digests and keys."""
    return xs.astype(">u4")


def unpack_array(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Entry arrays (a, b, c, d) as int32.  Entries are below 256, so every
    product and every sum or difference of two products fits."""
    # read as int32, d >= 128 makes the value negative, and the masks drop
    # the sign bits a shift brings in
    u = as_packed(xs).view(np.int32)
    return u & 255, (u >> 8) & 255, (u >> 16) & 255, (u >> 24) & 255


def pack_array(a, b, c, d) -> np.ndarray:
    """Packed array from entry arrays with values in 0..255."""
    # d << 24 sets the sign bit of an int32 when d >= 128; the cast to
    # uint32 reads the same bits back as a non-negative value.
    return (a | (b << 8) | (c << 16) | (d << 24)).astype(np.uint32)


def _mod(v: np.ndarray, m: int) -> np.ndarray:
    """v mod m: a mask when m is a power of 2, % otherwise."""
    return v & (m - 1) if m & (m - 1) == 0 else v % m


def _mul_entries(x, y, m: int):
    """Entries of the product x @ y mod m, from entry tuples (arrays or ints)."""
    ax, bx, cx, dx = x
    ay, by, cy, dy = y
    return (
        _mod(ax * ay + bx * cy, m),
        _mod(ax * by + bx * dy, m),
        _mod(cx * ay + dx * cy, m),
        _mod(cx * by + dx * dy, m),
    )


def mul_array_scalar(xs: np.ndarray, y: int, m: int) -> np.ndarray:
    """Elementwise right products xs @ y, packed."""
    return pack_array(*_mul_entries(unpack_array(xs), unpack(y), m))


def mul_arrays(xs: np.ndarray, ys: np.ndarray, m: int) -> np.ndarray:
    """Elementwise packed products xs[i] @ ys[i]."""
    return pack_array(*_mul_entries(unpack_array(xs), unpack_array(ys), m))


def det_array(xs: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = unpack_array(xs)
    return _mod(a * d - b * c, m)


def det_image(xs: np.ndarray, m: int, n: int) -> frozenset[int]:
    """The determinants mod n (n | m) of the packed matrices mod m."""
    if m % n:
        raise ValueError(f"{n} does not divide modulus {m}")
    return frozenset(int(v) for v in unique(_mod(det_array(xs, m), n)))


def reduce_array(xs: np.ndarray, m2: int) -> np.ndarray:
    if m2 & (m2 - 1) == 0:
        # every 8-bit field masked at once
        return xs & ((m2 - 1) * 0x01010101)
    return pack_array(*(v % m2 for v in unpack_array(xs)))


def neg_array(xs: np.ndarray, m: int) -> np.ndarray:
    return pack_array(*(_mod(-v, m) for v in unpack_array(xs)))


def square_array(xs: np.ndarray, m: int) -> np.ndarray:
    x = unpack_array(xs)
    return pack_array(*_mul_entries(x, x, m))


def order_array(xs: np.ndarray, m: int) -> np.ndarray:
    """Multiplicative order of every packed matrix, by iterated multiplication."""
    orders = np.zeros(len(xs), dtype=np.int64)
    acc = xs.copy()
    k = 1
    while True:
        remaining = orders == 0
        done = remaining & (acc == IDENTITY)
        orders[done] = k
        remaining &= ~done
        if not remaining.any():
            return orders
        acc[remaining] = mul_arrays(acc[remaining], xs[remaining], m)
        k += 1
        if k > 8 * m * m:
            raise AssertionError("order computation runaway")


def lift_array(xs: np.ndarray, m: int, m2: int) -> np.ndarray:
    """All packed lifts mod m2 of packed matrices given mod m (m | m2).

    Entry lifts a -> a + m*t never carry across 8-bit fields because m2 <= 256,
    so lifting is a packed addition of offset patterns.
    """
    if m2 % m != 0 or m2 > MAX_PACK_MODULUS:
        raise ValueError(f"bad lift {m} -> {m2}")
    r = m2 // m
    t = np.arange(r, dtype=np.uint32)
    offs = (
        t[:, None, None, None]
        | (t[None, :, None, None] << 8)
        | (t[None, None, :, None] << 16)
        | (t[None, None, None, :] << 24)
    ).ravel() * m
    out = (xs[:, None] + offs[None, :]).ravel()
    out.sort()
    return out


def unique(xs: np.ndarray) -> np.ndarray:
    """Sorted distinct values of xs."""
    s = np.sort(xs)
    keep = np.empty(s.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(s[1:], s[:-1], out=keep[1:])
    return s[keep]


def index_of(sorted_set: np.ndarray, x: int) -> int:
    """Position of the packed matrix x in the sorted set, -1 when absent."""
    i = int(np.searchsorted(sorted_set, np.uint32(x)))
    return i if i < sorted_set.shape[0] and sorted_set[i] == x else -1


def contains(sorted_set: np.ndarray, x: int) -> bool:
    return index_of(sorted_set, x) >= 0


def in_sorted(xs: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask of the xs that lie in the non-empty sorted array."""
    idx = np.searchsorted(sorted_set, xs)
    idx[idx >= sorted_set.shape[0]] = sorted_set.shape[0] - 1
    return sorted_set[idx] == xs


def keyed(values: np.ndarray, labels) -> np.ndarray:
    """Keys value << 32 | label of packed values and uint32 labels (an
    array or one int): sorted by value first, then by label."""
    keys = values.astype(np.uint64)
    keys <<= np.uint64(32)
    keys |= labels
    return keys


def key_values(keys: np.ndarray) -> np.ndarray:
    """The packed values of keys."""
    return (keys >> np.uint64(32)).astype(np.uint32)


def key_labels(keys: np.ndarray) -> np.ndarray:
    """The uint32 labels of keys."""
    return keys.astype(np.uint32)


# ---------------------------------------------------------------------------
# breadth-first closure
# ---------------------------------------------------------------------------


def closure(gens, m: int, cap: int = ELEMENT_BUDGET) -> np.ndarray:
    """Sorted packed element array of the subgroup generated by gens mod m.

    Raises BudgetExceeded when the closure would pass cap elements.
    """
    gens = sorted({int(g) for g in gens} - {IDENTITY})
    known = frontier = as_packed([IDENTITY])
    g = _entry_columns(gens, 1)
    while gens:
        cand = unique(pack_array(*_mul_entries(unpack_array(frontier), g, m)).ravel())
        fresh = cand[~in_sorted(cand, known)]
        if fresh.size == 0:
            break
        if known.size + fresh.size > cap:
            raise BudgetExceeded(f"closure exceeded budget of {cap} elements (mod {m})")
        # two sorted runs of distinct values: a stable sort merges them
        known = np.sort(np.concatenate([known, fresh]), kind="stable")
        frontier = fresh
    return known


def powers(g: int, m: int) -> np.ndarray:
    """Sorted packed element array of the cyclic group <g> mod m; raises
    ValueError when g is not invertible."""
    inv(g, m)
    out, x = [IDENTITY], g
    while x != IDENTITY:
        out.append(x)
        x = mul(x, g, m)
    return np.sort(as_packed(out))


def coset_closure(subgroup: np.ndarray, gens, m: int,
                  cap: int = ELEMENT_BUDGET) -> np.ndarray:
    """Sorted packed element array of <gens> mod m, grown from the sorted
    element array of a subgroup C of it one right coset C y at a time
    (Dimino's algorithm).

    A union of right cosets C r is closed under right multiplication by a
    generator s exactly when every r s lies in it, since C r s = C r' when
    r s lies in C r'.  So the cosets are found breadth-first from C: the
    products of the newest representatives by every generator that lie in
    no known coset give the next representatives, one per new coset, and
    each new coset costs one product of C by its representative.  Raises
    BudgetExceeded when the closure would pass cap elements.
    """
    gens = [int(s) for s in gens]
    g = _entry_columns(gens, 1)
    c = unpack_array(subgroup)
    known = subgroup
    cand = as_packed(gens)  # the products of the representative I
    while True:
        cand = cand[~in_sorted(cand, known)]
        cosets, fresh = [known], []
        while cand.size:
            y = int(cand[0])
            coset = np.sort(pack_array(*_mul_entries(c, unpack(y), m)))
            cand = cand[~in_sorted(cand, coset)]
            cosets.append(coset)
            fresh.append(y)
        if not fresh:
            return known
        if len(known) + len(fresh) * len(subgroup) > cap:
            raise BudgetExceeded(f"closure exceeded budget of {cap} elements (mod {m})")
        known = np.sort(np.concatenate(cosets))
        cand = pack_array(*_mul_entries(unpack_array(as_packed(fresh)), g, m)).ravel()


def _entry_columns(gens, ndim: int) -> list[np.ndarray]:
    """Entry arrays (a, b, c, d) of the packed gens, shaped (len(gens),) plus
    ndim unit axes: against an ndim-dimensional operand, one product covers
    every generator."""
    shape = (len(gens),) + (1,) * ndim
    return [np.array(col, dtype=np.int32).reshape(shape)
            for col in zip(*map(unpack, gens))]


def conjugate_set(xs: np.ndarray, gens, m: int) -> np.ndarray:
    """Packed sets {g x g^-1}, sorted along the last axis of xs.

    xs is one set (1-D) or a stack of sets, one per row.  gens is a
    sequence of packed generators; the result has a leading axis with one
    slice per generator, all computed in one product.
    """
    gens = [int(g) for g in gens]
    g_inv = _entry_columns([inv(g, m) for g in gens], xs.ndim)
    x_gi = _mul_entries(unpack_array(xs), g_inv, m)
    out = pack_array(*_mul_entries(_entry_columns(gens, xs.ndim), x_gi, m))
    out.sort(axis=-1)
    return out
