"""Low-level kernels for 2x2 matrices over Z/m packed into single integers.

A matrix [[a, b], [c, d]] with entries reduced mod m (m <= 256) is stored as
``a | b<<8 | c<<16 | d<<24``.  Element sets are kept as sorted int64 numpy
arrays of packed values, which makes membership a binary search and lets the
breadth-first closure run over flat arrays.

Everything here is plain numpy: the closure multiplies a whole frontier by
each generator at once, and conjugation maps a whole element set at once.
"""

from __future__ import annotations

import numpy as np

# There is no JIT back-end; perfbench/worker.py still records this flag as
# host info, so it stays until the benchmark stops reading it.
_USE_NUMBA = False

MAX_PACK_MODULUS = 256

IDENTITY = 1 | (1 << 24)


class BudgetExceeded(RuntimeError):
    """A closure or orbit grew past the configured element budget."""


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


def unpack_array(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    return xs & 255, (xs >> 8) & 255, (xs >> 16) & 255, (xs >> 24) & 255


def pack_array(a, b, c, d) -> np.ndarray:
    return a | (b << 8) | (c << 16) | (d << 24)


def mul_array_scalar(xs: np.ndarray, y: int, m: int, right: bool = True) -> np.ndarray:
    """Elementwise xs @ y (right=True) or y @ xs (right=False), packed."""
    ax, bx, cx, dx = unpack_array(xs)
    ay, by, cy, dy = unpack(y)
    if right:
        return pack_array(
            (ax * ay + bx * cy) % m,
            (ax * by + bx * dy) % m,
            (cx * ay + dx * cy) % m,
            (cx * by + dx * dy) % m,
        )
    return pack_array(
        (ay * ax + by * cx) % m,
        (ay * bx + by * dx) % m,
        (cy * ax + dy * cx) % m,
        (cy * bx + dy * dx) % m,
    )


def mul_arrays(xs: np.ndarray, ys: np.ndarray, m: int) -> np.ndarray:
    """Elementwise packed products xs[i] @ ys[i]."""
    ax, bx, cx, dx = unpack_array(xs)
    ay, by, cy, dy = unpack_array(ys)
    return pack_array(
        (ax * ay + bx * cy) % m,
        (ax * by + bx * dy) % m,
        (cx * ay + dx * cy) % m,
        (cx * by + dx * dy) % m,
    )


def det_array(xs: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = unpack_array(xs)
    return (a * d - b * c) % m


def det_image(xs: np.ndarray, m: int, n: int) -> frozenset[int]:
    """The determinants mod n (n | m) of the packed matrices mod m."""
    if m % n:
        raise ValueError(f"{n} does not divide modulus {m}")
    return frozenset(int(v) for v in np.unique(det_array(xs, m) % n))


def reduce_array(xs: np.ndarray, m2: int) -> np.ndarray:
    a, b, c, d = unpack_array(xs)
    return pack_array(a % m2, b % m2, c % m2, d % m2)


def neg_array(xs: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = unpack_array(xs)
    return pack_array((-a) % m, (-b) % m, (-c) % m, (-d) % m)


def square_array(xs: np.ndarray, m: int) -> np.ndarray:
    a, b, c, d = unpack_array(xs)
    return pack_array(
        (a * a + b * c) % m,
        (a * b + b * d) % m,
        (c * a + d * c) % m,
        (c * b + d * d) % m,
    )


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


def inv_array(xs: np.ndarray, m: int) -> np.ndarray:
    """Packed inverses of an array of invertible packed matrices."""
    table = unit_inverse_table(m)
    a, b, c, d = unpack_array(xs)
    dt = (a * d - b * c) % m
    di = table[dt]
    if np.any(di < 0):
        raise ValueError(f"array contains a matrix not invertible mod {m}")
    return pack_array((d * di) % m, (-b * di) % m, (-c * di) % m, (a * di) % m)


def conj_array(xs: np.ndarray, g: int, m: int) -> np.ndarray:
    """g @ x @ g^-1 for every packed x; result is not sorted."""
    gi = inv(g, m)
    return mul_array_scalar(mul_array_scalar(xs, gi, m, right=True), g, m, right=False)


_INV_TABLES: dict[int, np.ndarray] = {}


def unit_inverse_table(m: int) -> np.ndarray:
    """table[u] = u^-1 mod m for units, -1 for non-units."""
    tab = _INV_TABLES.get(m)
    if tab is None:
        tab = np.full(m, -1, dtype=np.int64)
        for u in range(m):
            try:
                tab[u] = pow(u, -1, m)
            except ValueError:
                pass
        _INV_TABLES[m] = tab
    return tab


def lift_array(xs: np.ndarray, m: int, m2: int) -> np.ndarray:
    """All packed lifts mod m2 of packed matrices given mod m (m | m2).

    Entry lifts a -> a + m*t never carry across 8-bit fields because m2 <= 256,
    so lifting is a packed addition of offset patterns.
    """
    if m2 % m != 0 or m2 > MAX_PACK_MODULUS:
        raise ValueError(f"bad lift {m} -> {m2}")
    r = m2 // m
    t = np.arange(r, dtype=np.int64)
    offs = (
        t[:, None, None, None]
        | (t[None, :, None, None] << 8)
        | (t[None, None, :, None] << 16)
        | (t[None, None, None, :] << 24)
    ).ravel() * m
    out = (xs[:, None] + offs[None, :]).ravel()
    out.sort()
    return out


def contains(sorted_set: np.ndarray, x: int) -> bool:
    i = np.searchsorted(sorted_set, x)
    return bool(i < sorted_set.shape[0] and sorted_set[i] == x)


def in_sorted(xs: np.ndarray, sorted_set: np.ndarray) -> np.ndarray:
    """Boolean mask of the xs that lie in the non-empty sorted array."""
    idx = np.searchsorted(sorted_set, xs)
    idx[idx >= sorted_set.shape[0]] = sorted_set.shape[0] - 1
    return sorted_set[idx] == xs


def is_subset(candidates: np.ndarray, sorted_set: np.ndarray) -> bool:
    if candidates.size == 0:
        return True
    return bool(in_sorted(candidates, sorted_set).all())


# ---------------------------------------------------------------------------
# breadth-first closure
# ---------------------------------------------------------------------------


def closure(gens, m: int, cap: int = 1 << 27, seeds=None) -> np.ndarray:
    """Sorted packed element array of the subgroup generated by gens mod m.

    When seeds is given it must be a subset of the target group; the BFS
    starts from seeds united with the identity.  Raises BudgetExceeded when
    the closure would pass cap elements.
    """
    gens = sorted({int(g) for g in gens} - {IDENTITY})
    known = np.array([IDENTITY], dtype=np.int64)
    if seeds is not None:
        known = np.union1d(np.asarray(seeds, dtype=np.int64), known)
    frontier = known
    while gens:
        cand = np.unique(np.concatenate(
            [mul_array_scalar(frontier, g, m) for g in gens]))
        fresh = cand[~in_sorted(cand, known)]
        if fresh.size == 0:
            break
        if known.size + fresh.size > cap:
            raise BudgetExceeded(f"closure exceeded budget of {cap} elements (mod {m})")
        known = np.union1d(known, fresh)
        frontier = fresh
    return known


def conjugate_set(xs: np.ndarray, g: int, m: int) -> np.ndarray:
    """Sorted packed set {g x g^-1}."""
    out = conj_array(np.asarray(xs, dtype=np.int64), int(g), m)
    out.sort()
    return out
