"""Spans around minimal2's public functions, recorded from outside the program.

``Tracer.install`` replaces each named function or method with a wrapper
that records a span (id, parent id, name, start, end, self time, and an
optional work count taken from the arguments or the result).  Spans are
kept in memory and written out once, at the end of the run.  Self time is
a span's duration minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# (owner path, attribute, span name, work count or None).  The work count
# maps (args, result) to a number summed into "<name>.<field>".
LAYERS = [
    ("kernels", "closure", "kernels.closure", ("elements", lambda a, r: len(r))),
    ("kernels", "conjugate_set", "kernels.conjugate_set", None),
    ("subgroups.OpenSubgroup", "frattini_quotient", "subgroups.frattini_quotient",
     ("elements", lambda a, r: len(a[0].elements))),
    ("subgroups.OpenSubgroup", "level", "subgroups.level", None),
    ("subgroups.OpenSubgroup", "reduce", "subgroups.reduce", None),
    ("subgroups.OpenSubgroup", "lift", "subgroups.lift", None),
    ("subgroups.OpenSubgroup", "own_digest", "subgroups.own_digest", None),
    ("subgroups.OpenSubgroup", "conjugacy_digests", "subgroups.conjugacy_digests",
     ("orbit_size", lambda a, r: len(r))),
    ("subgroups.OpenSubgroup", "index2_subgroups", "subgroups.index2_subgroups", None),
    ("minimality", "census", "minimality.census", ("entries", lambda a, r: len(r))),
    ("minimality", "is_minimal", "minimality.is_minimal", None),
    ("modcurve", "genus", "modcurve.genus", ("cosets", lambda a, r: r.psl_index)),
    ("lie2adic", "lie_check_all_classes", "lie2adic.lie_check_all_classes",
     ("lift_attempts", lambda a, r: sum(rec.retries + 1 for rec in r))),
    ("lie2adic", "d_determinant", "lie2adic.d_determinant", None),
    ("lie2adic", "mat_log", "lie2adic.mat_log", None),
    ("lie2adic", "mat_exp", "lie2adic.mat_exp", None),
    ("smallgroups.FiniteGroupTable", "__init__", "smallgroups.table_build", None),
    ("smallgroups.FiniteGroupTable", "subgroup_classes", "smallgroups.subgroup_classes",
     ("classes", lambda a, r: len(r))),
    ("smallgroups.FiniteGroupTable", "canonical_subgroup_key",
     "smallgroups.canonical_subgroup_key", None),
    ("ellcurve", "family_identity_check", "ellcurve.family_identity_check",
     ("specializations", lambda a, r: r["nonsingular"] + r["singular"])),
    ("ellcurve", "quadfamily_check", "ellcurve.quadfamily_check", None),
]

# Per-layer metrics reported from a traced pass: (name, unit).
METRICS = [
    ("kernels.closure.calls", "count"), ("kernels.closure.self_s", "s"),
    ("kernels.closure.elements", "count"),
    ("kernels.conjugate_set.calls", "count"), ("kernels.conjugate_set.self_s", "s"),
    ("subgroups.frattini_quotient.calls", "count"),
    ("subgroups.frattini_quotient.self_s", "s"),
    ("subgroups.frattini_quotient.elements", "count"),
    ("subgroups.level.calls", "count"), ("subgroups.level.self_s", "s"),
    ("subgroups.reduce.self_s", "s"), ("subgroups.lift.self_s", "s"),
    ("subgroups.conjugacy_digests.calls", "count"),
    ("subgroups.conjugacy_digests.self_s", "s"),
    ("subgroups.conjugacy_digests.orbit_size", "count"),
    ("subgroups.index2_subgroups.calls", "count"),
    ("subgroups.index2_subgroups.self_s", "s"),
    ("minimality.census.nodes", "count"), ("minimality.census.pops", "count"),
    ("minimality.census.dedup_hits", "count"), ("minimality.census.useful_ratio", "ratio"),
    ("minimality.census.entries", "count"), ("minimality.census.self_s", "s"),
    ("minimality.is_minimal.calls", "count"), ("minimality.is_minimal.self_s", "s"),
    ("modcurve.genus.calls", "count"), ("modcurve.genus.self_s", "s"),
    ("modcurve.genus.cosets", "count"),
    ("lie2adic.d_determinant.calls", "count"), ("lie2adic.d_determinant.self_s", "s"),
    ("lie2adic.mat_log.calls", "count"), ("lie2adic.mat_log.self_s", "s"),
    ("lie2adic.mat_exp.calls", "count"), ("lie2adic.mat_exp.self_s", "s"),
    ("lie2adic.lift_attempts", "count"), ("lie2adic.useful_ratio", "ratio"),
    ("smallgroups.table_build.calls", "count"), ("smallgroups.table_build.self_s", "s"),
    ("smallgroups.subgroup_classes.calls", "count"),
    ("smallgroups.subgroup_classes.self_s", "s"),
    ("smallgroups.subgroup_classes.classes", "count"),
    ("smallgroups.canonical_subgroup_key.calls", "count"),
    ("smallgroups.canonical_subgroup_key.self_s", "s"),
    ("ellcurve.family_identity_check.calls", "count"),
    ("ellcurve.family_identity_check.self_s", "s"),
    ("ellcurve.family_identity_check.specializations", "count"),
    ("ellcurve.quadfamily_check.self_s", "s"),
    ("process.cpu_s", "s"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    def __init__(self):
        # span: [id, parent, name, start, end, child_time, work]
        self.spans: list[list] = []
        self.stack: list[list] = []
        self.active = False

    def _wrap(self, fn, name, work):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else None
            span = [len(tracer.spans), parent[0] if parent else -1, name, 0.0, 0.0, 0.0, 0]
            tracer.spans.append(span)
            tracer.stack.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                tracer.stack.pop()
                if parent is not None:
                    parent[5] += span[4] - span[3]
            if work is not None:
                span[6] = work[1](args, result)
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every entry of LAYERS, rebinding module functions wherever a
        minimal2 module imported them by name."""
        mods = {n: m for n, m in sys.modules.items() if n.startswith("minimal2")}
        for owner, attr, name, work in LAYERS:
            modname, _, cls = owner.partition(".")
            target = sys.modules["minimal2." + modname]
            if cls:
                target = getattr(target, cls)
            fn = getattr(target, attr)
            wrapped = self._wrap(fn, name, work)
            setattr(target, attr, wrapped)
            if not cls:
                for mod in mods.values():
                    for k, v in list(vars(mod).items()):
                        if v is fn:
                            setattr(mod, k, wrapped)

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics: calls, self time and work counts per span name,
        and the census and Lie ratios derived from them."""
        out: dict[str, float] = {name: 0 for name, _ in METRICS}
        work_field = {name: w[0] for _, _, name, w in LAYERS if w}
        census_ids = {s[0] for s in self.spans if s[2] == "minimality.census"}
        for s in self.spans:
            _, parent, name, t0, t1, child, work = s
            out[name + ".calls"] = out.get(name + ".calls", 0) + 1
            out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + (t1 - t0 - child)
            if name in work_field:
                out[name + "." + work_field[name]] = \
                    out.get(name + "." + work_field[name], 0) + work
            if name in ("subgroups.conjugacy_digests", "subgroups.own_digest") \
                    and self._under(s, census_ids):
                key = "nodes" if name == "subgroups.conjugacy_digests" else "pops"
                out["minimality.census." + key] += 1
        if out["subgroups.conjugacy_digests.calls"]:
            out["subgroups.conjugacy_digests.orbit_size"] /= \
                out["subgroups.conjugacy_digests.calls"]
        nodes, pops = out["minimality.census.nodes"], out["minimality.census.pops"]
        out["minimality.census.dedup_hits"] = pops - nodes
        out["minimality.census.useful_ratio"] = nodes / pops if pops else 0
        attempts = out.get("lie2adic.lie_check_all_classes.lift_attempts", 0)
        out["lie2adic.lift_attempts"] = attempts
        if attempts:
            records = 9216 * out["lie2adic.lie_check_all_classes.calls"]
            out["lie2adic.useful_ratio"] = records / attempts
        return {name: out[name] for name, _ in METRICS if name in out}

    def _under(self, span, ids) -> bool:
        parent = span[1]
        while parent != -1:
            if parent in ids:
                return True
            parent = self.spans[parent][1]
        return False

    def write(self, path: str) -> None:
        with open(path, "w") as f:
            for s in self.spans:
                f.write(json.dumps([s[0], s[1], s[2], round(s[3], 7), round(s[4], 7),
                                    round(s[4] - s[3] - s[5], 7), s[6]]) + "\n")
