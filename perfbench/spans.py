"""Spans around the library's public functions, recorded from outside it.

``Tracer.install`` replaces each function named in ``SPANS`` (and each
law suite in ``laws._SUITE_FNS``) with a wrapper that records one span:
name, start, end, parent span and operation.  Module functions are
replaced in every loaded module that imported them by name, so calls
inside the library are caught as well.  Methods are replaced on their
class, so callers must look them up at call time, not hold bound methods
made before ``install``.  An operation is one call that the
benchmark itself made into the library; every span below it carries its
id.  Spans live in flat arrays while the pass runs and are written out
afterwards; ``layer_metrics`` derives the per-layer figures from them.
"""

from __future__ import annotations

import gzip
import json
import sys
import time
from array import array

# (module, class or None, attribute).  A span is named "<module>.<attribute>".
SPANS = (
    ("core", None, "ex_witness"),
    ("core", None, "un_witness"),
    ("core", None, "dial_witness"),
    ("fincat", "SkelFinSet", "pair"),
    ("fincat", "SkelFinSet", "proj1"),
    ("fincat", "SkelFinSet", "proj2"),
    ("fincat", "SkelFinSet", "identity"),
    ("fincat", None, "compose"),
    ("fincat", None, "product_map"),
    ("doctrine", "PowersetDoctrine", "reindex"),
    ("doctrine", "PowersetDoctrine", "exists_along"),
    ("doctrine", "PowersetDoctrine", "forall_along"),
    ("completion", "Completion", "leq"),
    ("completion", "Completion", "certifies"),
    ("completion", "Completion", "reindex"),
    ("completion", "Completion", "exists_pr"),
    ("completion", "Completion", "forall_pr"),
    ("completion", "Completion", "exists_inj"),
    ("completion", "Completion", "forall_inj"),
    ("completion", "Completion", "meet"),
    ("completion", "Completion", "join"),
    ("completion", "Completion", "unit"),
    ("completion", "Completion", "mult"),
    ("dialectica", None, "dial_leq"),
    ("dialectica", None, "dial_certifies"),
    ("dialectica", None, "dial_to_nested"),
    ("dialectica", None, "dial_from_nested"),
    ("dialectica", None, "forall_pr_exp"),
    ("poset", "Preorder", "from_le"),
    ("poset", None, "poset_reflect"),
    ("poset", None, "lattice_check"),
    ("principles", None, "skolem_check"),
    ("principles", None, "extract_choice"),
    ("principles", None, "extract_counterexample"),
)
KERNELS = ("core.ex_witness", "core.un_witness", "core.dial_witness")
ARROW_BUILDERS = ("fincat.pair", "fincat.proj1", "fincat.proj2", "fincat.identity",
                  "fincat.compose", "fincat.product_map")
MODULES = ("core", "fincat", "doctrine", "completion", "dialectica", "poset",
           "principles", "laws")
SUITES = ("functoriality", "adjunctions", "beck-chevalley", "lattice", "duality",
          "monad", "skolem", "dialectica-oracle")


class Tracer:
    def __init__(self):
        self.names = []
        self.name_of = array("H")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = []
        self.hits = 0
        self.arrows = set()
        self.arrows_enumerated = 0

    # -- recording -------------------------------------------------------

    def wrap(self, name, fn, record=None):
        nid = len(self.names)
        self.names.append(name)
        stack, now = self.stack, time.perf_counter
        name_of, parent, op = self.name_of.append, self.parent.append, self.op
        start, end = self.start, self.end
        tracer = self

        def traced(*args, **kwargs):
            i = len(start)
            p = stack[-1] if stack else -1
            name_of(nid)
            parent(p)
            o = op[p] if p >= 0 else -1
            op.append(i if o < 0 else o)
            end.append(0.0)
            stack.append(i)
            start.append(now())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = now()
                stack.pop()
            if record == "hit":
                tracer.hits += result is not None
            elif record == "arrow":
                tracer.arrows.add(result)
            return result

        return traced

    def pass_span(self, fn, *args):
        """Run one pass under a root span; returns (result, seconds)."""
        root = len(self.start)
        self.names.append("bench.pass")
        self.name_of.append(len(self.names) - 1)
        self.parent.append(-1)
        self.op.append(-1)
        self.end.append(0.0)
        self.stack.append(root)
        t = time.perf_counter()
        self.start.append(t)
        try:
            result = fn(*args)
        finally:
            self.end[root] = time.perf_counter()
            self.stack.pop()
        return result, self.end[root] - t

    def install(self):
        import doctrines.laws as laws

        namespaces = [vars(m) for m in list(sys.modules.values()) if hasattr(m, "__dict__")]
        for mod_name, owner, attr in SPANS:
            name = f"{mod_name}.{attr}"
            record = "hit" if name in KERNELS else "arrow" if name in ARROW_BUILDERS else None
            mod = sys.modules[f"doctrines.{mod_name}"]
            if owner is None:
                orig = getattr(mod, attr)
                traced = self.wrap(name, orig, record)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is orig:
                            ns[key] = traced
                continue
            cls = getattr(mod, owner)
            orig = cls.__dict__[attr]
            if isinstance(orig, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, orig.__func__, record)))
            else:
                setattr(cls, attr, self.wrap(name, orig, record))
        for suite, fn in list(laws._SUITE_FNS.items()):
            laws._SUITE_FNS[suite] = self.wrap(f"laws.{suite}", fn)
        fincat = sys.modules["doctrines.fincat"]
        iter_hom = fincat.SkelFinSet.iter_hom
        tracer = self

        def counted_iter_hom(cat, a, b, budget=None):
            for arrow in iter_hom(cat, a, b, budget):
                tracer.arrows_enumerated += 1
                yield arrow

        fincat.SkelFinSet.iter_hom = counted_iter_hom

    # -- output ----------------------------------------------------------

    def write(self, path):
        """Gzipped: one JSON header line, then each column as raw machine
        values in the header's order (read back with ``array.frombytes``)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = ("name_of", "parent", "op", "start", "end")
        header = {
            "spans": len(self.start),
            "names": self.names,
            "columns": [[c, getattr(self, c).typecode] for c in columns],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter, seconds",
        }
        with gzip.open(path, "wb", compresslevel=1) as out:
            out.write(json.dumps(header).encode() + b"\n")
            for c in columns:
                out.write(getattr(self, c).tobytes())

    def layer_metrics(self, laws_checked: int) -> dict:
        """Per-layer counts, self times and ratios derived from the spans.

        A span's self time is its duration minus that of its child spans.
        An inclusive figure counts only spans with no ancestor of the same
        name, so nested calls are not counted twice.
        """
        n = len(self.start)
        names, name_of, parent = self.names, self.name_of, self.parent
        start, end = self.start, self.end
        child = array("d", bytes(8 * n))
        for i, p in enumerate(parent):
            if p >= 0:
                child[p] += end[i] - start[i]
        k = len(names)
        calls = [0] * k
        self_s = [0.0] * k
        outer_s = [0.0] * k
        max_s = [0.0] * k
        open_names = [0] * k
        path = []
        for i in range(n):
            p = parent[i]
            while path and path[-1] != p:
                open_names[name_of[path.pop()]] -= 1
            nid = name_of[i]
            dur = end[i] - start[i]
            calls[nid] += 1
            self_s[nid] += dur - child[i]
            if open_names[nid] == 0:
                outer_s[nid] += dur
            if dur > max_s[nid]:
                max_s[nid] = dur
            open_names[nid] += 1
            path.append(i)

        def total(table, *span_names):
            return sum(table[j] for j, nm in enumerate(names) if nm in span_names)

        kernel_calls = total(calls, *KERNELS)
        arrow_calls = total(calls, *ARROW_BUILDERS)
        leq_calls = total(calls, "completion.leq")
        kernel_routed = self._kernel_routed_leqs()
        m = {
            "core.ex_witness.calls": total(calls, "core.ex_witness"),
            "core.un_witness.calls": total(calls, "core.un_witness"),
            "core.dial_witness.calls": total(calls, "core.dial_witness"),
            "core.dial_witness.max_ms": total(max_s, "core.dial_witness") * 1e3,
            "core.hit_ratio": self.hits / kernel_calls if kernel_calls else 0.0,
            "fincat.calls": arrow_calls,
            "fincat.distinct_ratio": len(self.arrows) / arrow_calls if arrow_calls else 0.0,
            "fincat.arrows_enumerated": self.arrows_enumerated,
            "doctrine.reindex.calls": total(calls, "doctrine.reindex"),
            "completion.leq.calls": leq_calls,
            "completion.certifies.calls": total(calls, "completion.certifies"),
            "completion.certifies_s": total(outer_s, "completion.certifies"),
            "completion.kernel_route_ratio": kernel_routed / leq_calls if leq_calls else 0.0,
            "dialectica.dial_leq.calls": total(calls, "dialectica.dial_leq"),
            "dialectica.dial_certifies_s": total(outer_s, "dialectica.dial_certifies"),
            "poset.from_le_s": total(outer_s, "poset.from_le"),
            "poset.reflect_s": total(outer_s, "poset.poset_reflect"),
            "poset.lattice_check_s": total(outer_s, "poset.lattice_check"),
            "principles.skolem_check.calls": total(calls, "principles.skolem_check"),
        }
        for mod in MODULES:
            m[f"{mod}.self_s"] = sum(
                self_s[j] for j, nm in enumerate(names) if nm.startswith(mod + ".")
            )
        for suite in SUITES:
            m[f"laws.{suite}_s"] = total(outer_s, f"laws.{suite}")
        m["laws.checked"] = laws_checked
        m["bench.self_s"] = total(self_s, "bench.pass")
        m["trace.spans"] = n
        return m

    def _kernel_routed_leqs(self) -> int:
        """Completion.leq spans with a witness kernel span as a direct child."""
        leq = {j for j, nm in enumerate(self.names) if nm == "completion.leq"}
        kern = {j for j, nm in enumerate(self.names) if nm in ("core.ex_witness", "core.un_witness")}
        routed = set()
        name_of, parent = self.name_of, self.parent
        for i in range(len(self.start)):
            p = parent[i]
            if name_of[i] in kern and p >= 0 and name_of[p] in leq:
                routed.add(p)
        return len(routed)
