"""Output checks for the benchmark, computed apart from minimal2.

Nothing here imports minimal2.  Matrices mod m are encoded as the integer
key ((a*m + b)*m + c)*m + d, which is not the program's packing; element
sets are sorted int64 key arrays and every group is rebuilt by this file's
own breadth-first closure.  Each check returns a list of problem strings:
an empty list means the output passed.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from itertools import permutations

import numpy as np

FULL_MOD8 = frozenset({1, 3, 5, 7})
D_BITS = 50


# -- matrices mod m as integer keys -------------------------------------------

def split(keys, m):
    keys = np.asarray(keys, dtype=np.int64)
    return keys // m**3, keys // m**2 % m, keys // m % m, keys % m


def join(a, b, c, d, m):
    return ((np.asarray(a) % m * m + np.asarray(b) % m) * m
            + np.asarray(c) % m) * m + np.asarray(d) % m


def key(t, m) -> int:
    return int(join(*t, m))


def mul(x, y, m):
    a, b, c, d = split(x, m)
    e, f, g, h = split(y, m)
    return join(a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h, m)


def inverse(x, m):
    a, b, c, d = split(x, m)
    units = np.array([pow(u, -1, m) if math.gcd(u, m) == 1 else 0 for u in range(m)])
    dinv = units[(a * d - b * c) % m]
    return join(d * dinv, -b * dinv, -c * dinv, a * dinv, m)


def det(keys, m):
    a, b, c, d = split(keys, m)
    return (a * d - b * c) % m


def gl2_order(m: int) -> int:
    """|GL_2(Z/m)| for a prime power m."""
    if m == 1:
        return 1
    p = next(q for q in range(2, m + 1) if m % q == 0)
    return (p * p - 1) * (p * p - p) * (m // p) ** 4


MAX_ELEMENTS = 1 << 20


def closure(gens, m, start=None):
    """Sorted keys of the group generated by gens (keys), optionally grown
    from an already closed subgroup ``start``."""
    g = np.unique(np.append(np.asarray(gens, dtype=np.int64), key((1, 0, 0, 1), m)))
    known = g if start is None else np.union1d(start, g)
    frontier = known
    while frontier.size:
        if len(known) > MAX_ELEMENTS:
            raise ValueError(f"closure mod {m} passed {MAX_ELEMENTS} elements")
        prods = np.unique(mul(frontier[:, None], g[None, :], m))
        fresh = np.setdiff1d(prods, known, assume_unique=True)
        known = np.union1d(known, fresh)
        frontier = fresh
    return known


def generated_by_set(xs, m):
    """The subgroup generated by a possibly large set, grown one missing
    generator at a time so each closure step multiplies by few generators."""
    xs = np.unique(np.asarray(xs, dtype=np.int64))
    gens: list[int] = []
    group = closure([], m)
    while True:
        missing = xs[~np.isin(xs, group, assume_unique=True)]
        if not missing.size:
            return group
        gens.append(int(missing[0]))
        group = closure(gens, m, start=group)


def reduce(keys, m, m2):
    return np.unique(join(*split(keys, m), m2))


def lift(keys, m, m2):
    """Full preimage mod m2 of a set given mod m."""
    r = m2 // m
    t = np.arange(r)
    offs = np.stack(np.meshgrid(t, t, t, t, indexing="ij"), -1).reshape(-1, 4) * m
    a, b, c, d = (v[:, None] for v in split(keys, m))
    return np.unique(join(a + offs[:, 0], b + offs[:, 1], c + offs[:, 2],
                          d + offs[:, 3], m2))


def level(keys, m) -> int:
    """Smallest 2^j (p^j) modulus whose preimage is the whole set."""
    n = len(keys)
    j = 1
    if n == gl2_order(m):
        return 1
    p = next(q for q in range(2, m + 1) if m % q == 0)
    while True:
        j *= p
        if len(reduce(keys, m, j)) * (m // j) ** 4 == n:
            return j


def det_image(keys, m, n=8):
    return frozenset(int(v) for v in np.unique(det(keys, m) % n))


def frattini_rank(keys, m) -> int:
    """log2 |H / <x^2 : x in H>|; for a finite 2-group that subgroup is the
    Frattini subgroup."""
    phi = generated_by_set(mul(keys, keys, m), m)
    ratio = len(keys) // len(phi)
    if ratio * len(phi) != len(keys) or ratio & (ratio - 1):
        raise ValueError("square subgroup index is not a power of 2")
    return ratio.bit_length() - 1


def model_at(keys, m, m2):
    if m2 == m:
        return keys
    return lift(keys, m, m2) if m2 > m else reduce(keys, m, m2)


def minimality_facts(keys, m) -> dict:
    """The minimality verdict re-derived from the element set alone, at the
    certifying modulus max(8, 2 * level)."""
    lvl = level(keys, m)
    cert = max(8, 2 * lvl)
    hm = model_at(keys, m, cert)
    n = len(hm)
    two_group = n & (n - 1) == 0
    det_full = det_image(hm, cert) == FULL_MOD8
    rank = frattini_rank(hm, cert) if two_group else None
    return {"level": lvl, "cert": cert, "elements": hm, "two_group": two_group,
            "det_full": det_full, "rank": rank,
            "minimal": two_group and det_full and rank == 2,
            "index": gl2_order(cert) // n}


# -- genus by counting fixed cosets ---------------------------------------------

_SL: dict[int, np.ndarray] = {}


def sl2(n: int) -> np.ndarray:
    if n not in _SL:
        allk = np.arange(n**4, dtype=np.int64)
        _SL[n] = allk[det(allk, n) == 1]
    return _SL[n]


def genus_facts(keys, m) -> dict:
    """psl_index, nu2, nu3, cusps and genus of X_H, from the permutation
    character of SL_2(Z/n) on the cosets of <H, -I> (Burnside for cusps)."""
    minus = key((m - 1, 0, 0, m - 1), m)
    g = np.union1d(keys, mul(keys, minus, m))
    n = level(g, m)
    if n == 1:
        return {"psl_index": 1, "nu2": 1, "nu3": 1, "cusps": 1, "genus": 0}
    gam = reduce(g, m, n)
    gam = gam[det(gam, n) == 1]
    sl = sl2(n)
    slinv = inverse(sl, n)

    def fixed(t) -> int:
        conj = mul(mul(sl, key(t, n), n), slinv, n)
        return int(np.isin(conj, gam).sum()) // len(gam)

    idx = len(sl) // len(gam)
    nu2 = fixed((0, -1, 1, 0))
    nu3 = fixed((0, -1, 1, -1))
    cusps = sum(fixed((1, k, 0, 1)) for k in range(n)) // n
    gen = 1 + Fraction(idx, 12) - Fraction(nu2, 4) - Fraction(nu3, 3) - Fraction(cusps, 2)
    return {"psl_index": idx, "nu2": nu2, "nu3": nu3, "cusps": cusps,
            "genus": gen.numerator if gen.denominator == 1 else gen}


def conjugation_orbit(keys, n) -> set[bytes]:
    """All GL_2(Z/n)-conjugates of a set given mod n, as sorted-key bytes."""
    gens = [key(t, n) for t in ((1, 1, 0, 1), (1, 0, 1, 1), (3, 0, 0, 1), (5, 0, 0, 1))]
    start = np.unique(keys)
    orbit = {start.tobytes()}
    frontier = [start]
    while frontier:
        xs = frontier.pop()
        for g in gens:
            ys = np.unique(mul(mul(g, xs, n), inverse(g, n), n))
            kb = ys.tobytes()
            if kb not in orbit:
                orbit.add(kb)
                frontier.append(ys)
    return orbit


# -- census -------------------------------------------------------------------------

EXPECTED_TALLY = {(8, 24): 4, (16, 48): 8}


def check_census(entries, expected_tally=EXPECTED_TALLY) -> list[str]:
    """entries: dicts with level, index, genus, contains_minus_I, modulus,
    generators and genus_data, as CensusEntry.to_json_dict writes them."""
    bad = []
    tally: dict = {}
    reduced = []
    for i, e in enumerate(entries):
        m = e["modulus"]
        h = closure([key(g, m) for g in e["generators"]], m)
        f = minimality_facts(h, m)
        tally[(e["level"], e["index"])] = tally.get((e["level"], e["index"]), 0) + 1
        if not f["minimal"]:
            bad.append(f"entry {i}: not minimal (rank {f['rank']}, det full {f['det_full']})")
        if (f["level"], f["index"], f["cert"]) != (e["level"], e["index"], m):
            bad.append(f"entry {i}: level/index/modulus {(f['level'], f['index'], f['cert'])}"
                       f" != reported {(e['level'], e['index'], m)}")
        minus_i = bool(np.isin(key((m - 1, 0, 0, m - 1), m), h))
        if minus_i != e["contains_minus_I"] or minus_i:
            bad.append(f"entry {i}: contains -I is {minus_i}")
        gf = genus_facts(h, m)
        if gf != e["genus_data"] or gf["genus"] != e["genus"] or gf["genus"] != 0:
            bad.append(f"entry {i}: genus data {gf} != reported {e['genus_data']}, "
                       f"genus {e['genus']}")
        reduced.append((e["level"], e["index"], reduce(h, m, f["level"]).tobytes(), f["level"]))
    if tally != expected_tally:
        bad.append(f"tally {tally} != {expected_tally}")
    for i, (lv, ix, kb, n) in enumerate(reduced):
        orbit = conjugation_orbit(np.frombuffer(kb, dtype=np.int64), n)
        for j in range(i + 1, len(reduced)):
            if reduced[j][:2] == (lv, ix) and reduced[j][2] in orbit:
                bad.append(f"entries {i} and {j} are conjugate")
    return bad


# -- certify ------------------------------------------------------------------------

def check_certify(gens, modulus, verdict, rank, cert_modulus, witness, label, genus_data,
                  with_genus) -> list[str]:
    """One group <A, B>: verdict, Frattini rank, certifying modulus, the
    non-minimality witness, the label and psl_index."""
    bad = []
    h = closure([key(g, modulus) for g in gens], modulus)
    f = minimality_facts(h, modulus)
    if (verdict, rank, cert_modulus) != (f["minimal"], f["rank"], f["cert"]):
        bad.append(f"verdict/rank/modulus {(verdict, rank, cert_modulus)} != "
                   f"{(f['minimal'], f['rank'], f['cert'])}")
    if not verdict:
        wm = witness.get("subgroup", {}).get("modulus")
        if witness.get("kind") != "maximal_subgroup_with_full_det" or wm != f["cert"]:
            bad.append(f"non-minimal verdict without a witness at modulus {f['cert']}")
        else:
            w = closure([key(g, wm) for g in witness["subgroup"]["generators"]], wm)
            hm = f["elements"]
            if not np.isin(w, hm).all() or len(w) == len(hm):
                bad.append("witness is not a proper subgroup")
            elif len(hm) != witness["index_in_group"] * len(w) or witness["index_in_group"] != 2:
                bad.append(f"witness index {len(hm) / len(w)} != {witness['index_in_group']}")
            if det_image(w, wm) != FULL_MOD8:
                bad.append("witness determinant is not full mod 8")
    if tuple(label[:2]) != (f["level"], f["index"]):
        bad.append(f"label {label} != level/index {(f['level'], f['index'])}")
    minus = key((modulus - 1, 0, 0, modulus - 1), modulus)
    with_minus = len(np.union1d(h, mul(h, minus, modulus)))
    if genus_data["psl_index"] * with_minus != gl2_order(modulus):
        bad.append(f"psl_index {genus_data['psl_index']} != "
                   f"{gl2_order(modulus) / with_minus}")
    if label[2] != genus_data["genus"]:
        bad.append("label genus differs from genus data")
    if with_genus:
        gf = genus_facts(h, modulus)
        if gf != genus_data:
            bad.append(f"genus data {genus_data} != {gf}")
    return bad


# -- lie ------------------------------------------------------------------------------

def gl2_mod4() -> list[tuple[int, int, int, int]]:
    return [t for t in ((a, b, c, d) for a in range(4) for b in range(4)
                        for c in range(4) for d in range(4)) if (t[0] * t[3] - t[1] * t[2]) % 2]


def _mm(x, y):
    a, b, c, d = x
    e, f, g, h = y
    return (a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h)


def v2(n: int) -> int:
    return (n & -n).bit_length() - 1


def exact_log(mat, bits: int = 80) -> tuple[int, ...]:
    """log(M) mod 2^bits for an integer matrix M = I mod 4, summed as exact
    fractions until every remaining term has valuation beyond ``bits``."""
    x = (mat[0] - 1, mat[1], mat[2], mat[3] - 1)
    if any(v % 4 for v in x):
        raise ValueError("log needs M = I mod 4")
    acc = [Fraction(0)] * 4
    power = (1, 0, 0, 1)
    n = 0
    while True:
        n += 1
        if 2 * n - math.log2(n) > bits + 2:
            break
        power = _mm(power, x)
        sign = 1 if n % 2 else -1
        acc = [s + Fraction(sign * p, n) for s, p in zip(acc, power)]
    mod = 1 << bits
    return tuple(f.numerator * pow(f.denominator, -1, mod) % mod for f in acc)


def _det4(cols, mod):
    total = 0
    for perm in permutations(range(4)):
        sign = (-1) ** sum(perm[i] > perm[j] for i in range(4) for j in range(i + 1, 4))
        prod = sign
        for col, row in enumerate(perm):
            prod *= cols[col][row]
        total += prod
    return total % mod


def exact_d(a_bar, a_dig, b_bar, b_dig) -> int:
    """The 4x4 determinant of [log A^12, log B^12, [la, lb], [[la, lb], la]]
    mod 2^50, from exact series."""
    def power12(bar, dig):
        m = tuple(b + 4 * t for b, t in zip(bar, dig))
        acc = (1, 0, 0, 1)
        for _ in range(12):
            acc = _mm(acc, m)
        return acc

    la = exact_log(power12(a_bar, a_dig))
    lb = exact_log(power12(b_bar, b_dig))
    br = tuple(p - q for p, q in zip(_mm(la, lb), _mm(lb, la)))
    br2 = tuple(p - q for p, q in zip(_mm(br, la), _mm(la, br)))
    return _det4([la, lb, br, br2], 1 << D_BITS)


def check_lie_record(r, exact: bool) -> list[str]:
    """r: a dict as LieCheckRecord.to_json_dict writes it.  d is nonzero mod
    2^50 and, with ``exact``, equal to the exact-series value."""
    bad = []
    d = r["d_residue"]
    if not 0 < d < 1 << D_BITS or r["d_valuation"] != v2(d):
        bad.append(f"record {r['class_index']}: d = {d} (valuation {r['d_valuation']})")
    if not all(t in (1, 2, 3) for t in (*r["a_digits"], *r["b_digits"])):
        bad.append(f"record {r['class_index']}: lift digits outside 1..3")
    if exact:
        e = exact_d(r["a_bar"], r["a_digits"], r["b_bar"], r["b_digits"])
        if e != d:
            bad.append(f"record {r['class_index']}: d = {d}, exact series gives {e}")
    return bad


def check_lie_coverage(records) -> list[str]:
    """The records' class pairs are exactly GL_2(Z/4) x GL_2(Z/4)."""
    classes = gl2_mod4()
    pairs = {(tuple(r["a_bar"]), tuple(r["b_bar"])) for r in records}
    if len(records) != len(classes) ** 2 or pairs != {(a, b) for a in classes for b in classes}:
        return [f"{len(records)} records do not cover the {len(classes) ** 2} class pairs"]
    return []


def check_round_trip(m_entries, log_entries, back_entries, back_effective,
                     exact: bool) -> list[str]:
    """exp(log M) = M mod 2^50; with ``exact`` also log M against the series."""
    bad = []
    mod = 1 << D_BITS
    if back_effective < D_BITS or any((x - y) % mod for x, y in zip(m_entries, back_entries)):
        bad.append(f"exp(log M) != M mod 2^{D_BITS} for M = {m_entries}")
    if exact and any((x - y) % mod for x, y in zip(exact_log(m_entries), log_entries)):
        bad.append(f"log M differs from the exact series for M = {m_entries}")
    return bad


# -- lemmas -----------------------------------------------------------------------------

def _int_mat_order(g, m) -> int:
    acc, k = g, 1
    while acc != (1 % m, 0, 0, 1 % m):
        acc = tuple(v % m for v in _mm(acc, g))
        k += 1
    return k


def _unit_order(u, m) -> int:
    acc, k = u % m, 1
    while acc != 1:
        acc, k = acc * u % m, k + 1
    return k


def check_falsifier(p, report) -> list[str]:
    """report: FalsifierReport.to_json_dict; every det-full class carries a
    cyclic witness whose det has order p(p-1) mod p^2 and which is proper."""
    bad = []
    m = p * p
    ws = report["witnesses"]
    if report["det_full_classes"] != len(ws) or not ws:
        bad.append(f"p={p}: {len(ws)} witnesses for {report['det_full_classes']} det-full classes")
    for w in ws:
        g = tuple(v % m for v in w["generator"])
        dorder = _unit_order((g[0] * g[3] - g[1] * g[2]) % m, m)
        corder = _int_mat_order(g, m)
        if dorder != p * (p - 1) or w["det_order"] != dorder:
            bad.append(f"p={p} class {w['base_class_index']}: det order {dorder}")
        if corder != w["cyclic_order"] or not corder < w["preimage_order"] \
                or w["preimage_order"] != w["base_order"] * p**4:
            bad.append(f"p={p} class {w['base_class_index']}: cyclic order {corder}, "
                       f"preimage {w['preimage_order']}")
    return bad


def _subgroup_classes_gl2(p):
    """Conjugacy classes of subgroups of GL_2(F_p) (2-generated, which covers
    GL_2(F_3)), as sorted key arrays."""
    g = closure([key(t, p) for t in ((1, 1, 0, 1), (1, 0, 1, 1), (2, 0, 0, 1))], p)
    ginv = inverse(g, p)
    subs = {}
    for i, x in enumerate(g):
        for y in g[i:]:
            s = closure([x, y], p)
            subs.setdefault(s.tobytes(), s)
    classes = {}
    for s in subs.values():
        conj = mul(mul(g[:, None], s[None, :], p), ginv[:, None], p)
        canon = min(np.sort(row).tobytes() for row in conj)
        classes.setdefault(canon, s)
    return list(classes.values())


def _is_nilpotent(keys, m) -> bool:
    """A finite group is nilpotent iff elements of coprime orders commute."""
    orders = np.ones(len(keys), dtype=np.int64)
    acc = keys.copy()
    ident = key((1, 0, 0, 1), m)
    while (acc != ident).any():
        live = acc != ident
        acc[live] = mul(acc[live], keys[live], m)
        orders[live] += 1
    primes = [q for q in (2, 3) if (orders % q == 0).any()]
    parts = []
    for q in primes:
        rest = orders.copy()
        while (rest % q == 0).any():
            rest[rest % q == 0] //= q
        parts.append(keys[rest == 1])
    if len(parts) < 2:
        return True
    x, y = parts[0][:, None], parts[1][None, :]
    return bool((mul(x, y, m) == mul(y, x, m)).all())


@functools.cache
def _nilpotent_lift_counts() -> tuple[dict, bool]:
    """Counts over the mod-9 preimages of the subgroup classes of GL_2(F_3),
    and whether every nilpotent preimage has det = 1 mod 3."""
    classes = _subgroup_classes_gl2(3)
    nil, square_det = 0, True
    for s in classes:
        pre = lift(s, 3, 9)
        if _is_nilpotent(pre, 9):
            nil += 1
            square_det &= det_image(pre, 9, 3) == frozenset({1})
    return {"classes": len(classes), "nilpotent_lifts": nil}, square_det


def check_nilpotent_lifts(result) -> list[str]:
    own, square_det = _nilpotent_lift_counts()
    bad = [] if square_det else ["a nilpotent preimage has det != 1 mod 3"]
    if result != own:
        bad.append(f"nilpotent lift counts {result} != {own}")
    return bad


def check_unit_squares(result, max_k=6) -> list[str]:
    own, bad = _unit_subgroup_counts(max_k)
    if result != own:
        bad = bad + [f"unit subgroup counts {result} != {own}"]
    return bad


@functools.cache
def _unit_subgroup_counts(max_k) -> tuple[dict, list[str]]:
    """Subgroups of (Z/2^k)^* for k = 3..max_k; only the whole group is full mod 8."""
    bad = []
    own = {}
    for k in range(3, max_k + 1):
        m = 1 << k
        units = range(1, m, 2)
        subs = set()
        for x in units:
            for y in units:
                s = {1}
                frontier = [1]
                while frontier:
                    z = frontier.pop()
                    for w in (z * x % m, z * y % m):
                        if w not in s:
                            s.add(w)
                            frontier.append(w)
                subs.add(frozenset(s))
        if any({u % 8 for u in s} == FULL_MOD8 and len(s) != m // 2 for s in subs):
            bad.append(f"k={k}: a proper subgroup is full mod 8")
        own[k] = len(subs)
    return own, bad


def odd_primes_from(start, count):
    out = []
    n = start | 1
    while len(out) < count:
        if all(n % d for d in range(3, math.isqrt(n) + 1, 2)):
            out.append(n)
        n += 2
    return out


def check_family(report, trials=40, primes=25) -> list[str]:
    bad = []
    if report["primes"] != odd_primes_from(401, primes):
        bad.append(f"{report['label']}: specialization primes are not the 25 from 401")
    if report["nonsingular"] + report["singular"] != trials * primes:
        bad.append(f"{report['label']}: {report['nonsingular'] + report['singular']} "
                   f"specializations, expected {trials * primes}")
    if report["failures"] or not report["pass"] or report["nonsingular"] <= report["singular"]:
        bad.append(f"{report['label']}: identities failed or singular majority")
    return bad


def _squarefree_part(n: int) -> int:
    out, q = 1, 2
    while q * q <= n:
        while n % (q * q) == 0:
            n //= q * q
        if n % q == 0:
            out, n = out * q, n // q
        q += 1
    return out * n


def check_quadfamily(n, report) -> list[str]:
    """y^2 = x^3 + A x^2 + B x with A = 2a, B = a^2 + 1, a^2 = -(2^n + 1):
    Delta = 16 B^2 (A^2 - 4B) = -2^(2n+6), computed from a^2 alone."""
    bad = []
    a2 = -(2**n + 1)
    A2, B = 4 * a2, a2 + 1
    delta = 16 * B * B * (A2 - 4 * B)
    if delta != -(2 ** (2 * n + 6)) or report["discriminant"] != delta:
        bad.append(f"n={n}: discriminant {report['discriminant']} != {delta}")
    # the twist by a is (a * A, a^2 * B) = (2 a^2, a^2 (a^2 + 1)), rational
    ta, tb = 2 * a2, a2 * (a2 + 1)
    j = Fraction(256 * (ta * ta - 3 * tb) ** 3, tb * tb * (ta * ta - 4 * tb))
    tw = report["twist_by_a"]
    if (tw["A"], tw["B"], tw["j_numerator"], tw["j_denominator"]) != \
            (ta, tb, j.numerator, j.denominator):
        bad.append(f"n={n}: twist {tw} != {(ta, tb, j)}")
    if report["radicand"] != -_squarefree_part(2**n + 1):
        bad.append(f"n={n}: radicand {report['radicand']}")
    if report["minus_two_u_squared_solvable"] != (n % 2 == 1):
        bad.append(f"n={n}: a^2 + 1 = -2u^2 solvability flag")
    return bad
