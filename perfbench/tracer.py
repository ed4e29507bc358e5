"""Spans and counts at the boundaries of the hgsearch layers.

The tracer wraps public functions of the package from outside: every
binding of a function is replaced, including the names other modules
imported it under (``search`` imports ``is_regular`` by name, ``monodromy``
imports ``unipotent_block_sizes``), so a call is seen whichever name it is
made through.  Spans are kept in memory in flat arrays and written out when
the round ends; the per-layer metrics are computed from them afterwards.
"""

from __future__ import annotations

import functools
import sys
from array import array
from collections import Counter
from time import perf_counter

# (module, attribute, span name, outcome counted as a pass)
SPANS = (
    ("search", "search_chunk", "search.search_chunk", None),
    ("params", "validate", "params.validate", None),
    ("criteria", "is_regular", "criteria.is_regular", bool),
    ("criteria", "bm_published", "criteria.bm_published", bool),
    ("criteria", "bm", "criteria.bm", lambda r: r[0]),
    ("criteria", "find_c", "criteria.find_c", lambda r: r is not None),
    ("criteria", "build_f", "criteria.build_f", None),
    ("criteria", "solve_in_E_basis", "criteria.solve_in_E_basis", lambda r: r is not None),
    ("criteria", "solve_in_E", "criteria.solve_in_E", None),
    ("criteria", "gamma_exponents", "criteria.gamma_exponents", None),
    ("intlattice", "smith_form", "intlattice.smith_form", None),
    ("intlattice", "solve_lattice", "intlattice.solve_lattice", None),
    ("monodromy", "verify_levelt", "monodromy.verify_levelt", None),
    ("monodromy", "levelt_matrices", "monodromy.levelt_matrices", None),
    ("monodromy", "verify_infinity_blocks", "monodromy.verify_infinity_blocks", None),
    ("monodromy", "verify_pseudoreflection", "monodromy.verify_pseudoreflection", None),
    ("monodromy", "verify_det_identities", "monodromy.verify_det_identities", None),
    ("monodromy", "verify_annihilation", "monodromy.verify_annihilation", None),
    ("cyclo", "CycMatrix.__mul__", "cyclo.CycMatrix.mul", None),
    ("cyclo", "CycMatrix.__pow__", "cyclo.CycMatrix.pow", None),
    ("cyclo", "CycMatrix.det", "cyclo.CycMatrix.det", None),
    ("cyclo", "CycMatrix.inv", "cyclo.CycMatrix.inv", None),
    ("cyclo", "CycMatrix.rank", "cyclo.CycMatrix.rank", None),
    ("cyclo", "unipotent_block_sizes", "cyclo.unipotent_block_sizes", None),
    ("jacobi", "hodge_newton_check", "jacobi.hodge_newton_check", None),
    ("jacobi", "motive_valuations", "jacobi.motive_valuations", None),
    ("jacobi", "PrimeFieldCtx.__init__", "jacobi.PrimeFieldCtx.init", None),
    ("jacobi", "jacobi", "jacobi.jacobi", None),
    ("tables", "reproduce_special", "tables.reproduce_special", None),
)

# Counted but not timed: called once per candidate, and too cheap for a span.
COUNTS = (("residues", "units", "residues.units"),)

# Per-layer metric -> (statistic, span or counter name).  "calls" counts
# spans, "pass" counts spans whose outcome passed, "total" sums the spans
# not nested in a span of the same name, "self" sums span minus child spans,
# "children" counts the second name's spans directly under the first's.
# trace.overhead_s is the traced wall time minus the untraced one; the
# runner fills it in, since it needs both rounds.
PER_LAYER = (
    ("search.chunks", "calls", "search.search_chunk"),
    ("search.candidates", "children", ("search.search_chunk", "params.validate")),
    ("search.search_chunk_s", "total", "search.search_chunk"),
    ("search.self_s", "self", "search.search_chunk"),
    ("params.validate_s", "total", "params.validate"),
    ("residues.units.calls", "count", "residues.units"),
    ("criteria.is_regular.calls", "calls", "criteria.is_regular"),
    ("criteria.is_regular.pass", "pass", "criteria.is_regular"),
    ("criteria.is_regular_s", "total", "criteria.is_regular"),
    ("criteria.bm_published.calls", "calls", "criteria.bm_published"),
    ("criteria.bm_published.pass", "pass", "criteria.bm_published"),
    ("criteria.bm_published_s", "total", "criteria.bm_published"),
    ("criteria.bm.calls", "calls", "criteria.bm"),
    ("criteria.bm.pass", "pass", "criteria.bm"),
    ("criteria.bm_s", "total", "criteria.bm"),
    ("criteria.find_c.calls", "calls", "criteria.find_c"),
    ("criteria.find_c.found", "pass", "criteria.find_c"),
    ("criteria.find_c_s", "total", "criteria.find_c"),
    ("criteria.find_c.self_s", "self", "criteria.find_c"),
    ("criteria.build_f.calls", "calls", "criteria.build_f"),
    ("criteria.solve_in_E_basis.calls", "calls", "criteria.solve_in_E_basis"),
    ("criteria.solve_in_E_basis.solved", "pass", "criteria.solve_in_E_basis"),
    ("criteria.solve_in_E_basis_s", "total", "criteria.solve_in_E_basis"),
    ("criteria.solve_in_E.calls", "calls", "criteria.solve_in_E"),
    ("criteria.solve_in_E_s", "total", "criteria.solve_in_E"),
    ("criteria.gamma_exponents.calls", "calls", "criteria.gamma_exponents"),
    ("criteria.gamma_exponents_s", "total", "criteria.gamma_exponents"),
    ("intlattice.smith_form.calls", "calls", "intlattice.smith_form"),
    ("intlattice.smith_form_s", "total", "intlattice.smith_form"),
    ("intlattice.solve_lattice.calls", "calls", "intlattice.solve_lattice"),
    ("intlattice.solve_lattice_s", "total", "intlattice.solve_lattice"),
    ("monodromy.verify_levelt_s", "total", "monodromy.verify_levelt"),
    ("monodromy.levelt_matrices.calls", "calls", "monodromy.levelt_matrices"),
    ("monodromy.verify_infinity_blocks_s", "total", "monodromy.verify_infinity_blocks"),
    ("monodromy.verify_pseudoreflection_s", "total", "monodromy.verify_pseudoreflection"),
    ("monodromy.verify_det_identities_s", "total", "monodromy.verify_det_identities"),
    ("monodromy.verify_annihilation.calls", "calls", "monodromy.verify_annihilation"),
    ("monodromy.verify_annihilation_s", "total", "monodromy.verify_annihilation"),
    ("cyclo.CycMatrix.mul.calls", "calls", "cyclo.CycMatrix.mul"),
    ("cyclo.CycMatrix.mul_s", "total", "cyclo.CycMatrix.mul"),
    ("cyclo.CycMatrix.pow_s", "total", "cyclo.CycMatrix.pow"),
    ("cyclo.CycMatrix.det_s", "total", "cyclo.CycMatrix.det"),
    ("cyclo.CycMatrix.inv_s", "total", "cyclo.CycMatrix.inv"),
    ("cyclo.CycMatrix.rank_s", "total", "cyclo.CycMatrix.rank"),
    ("cyclo.unipotent_block_sizes_s", "total", "cyclo.unipotent_block_sizes"),
    ("jacobi.hodge_newton_check_s", "total", "jacobi.hodge_newton_check"),
    ("jacobi.motive_valuations_s", "total", "jacobi.motive_valuations"),
    ("jacobi.PrimeFieldCtx.init_s", "total", "jacobi.PrimeFieldCtx.init"),
    ("jacobi.jacobi.calls", "calls", "jacobi.jacobi"),
    ("jacobi.jacobi_s", "total", "jacobi.jacobi"),
    ("tables.reproduce_special_s", "total", "tables.reproduce_special"),
)

OVERHEAD = "trace.overhead_s"


def per_layer_units():
    """Every per-layer metric the traced run prints, with its unit."""
    out = {name: ("s" if stat in ("total", "self") else "count") for name, stat, _ in PER_LAYER}
    out[OVERHEAD] = "s"
    return out


class Tracer:
    """Wraps the functions in SPANS and COUNTS while installed."""

    def __init__(self):
        self.names = [span for _, _, span, _ in SPANS]
        self.name_of = array("i")
        self.parent = array("i")
        self.outer = array("b")
        self.start = array("d")
        self.end = array("d")
        self.passes = Counter()
        self.counts = Counter()
        self._stack = []
        self._depth = [0] * len(self.names)
        self._patched = []

    def _span(self, nid, fn, outcome):
        name_of, parent, outer = self.name_of, self.parent, self.outer
        start, end, stack, depth = self.start, self.end, self._stack, self._depth
        passes, name = self.passes, self.names[nid]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name_of.append(nid)
            parent.append(stack[-1] if stack else -1)
            outer.append(depth[nid] == 0)
            end.append(0.0)
            depth[nid] += 1
            stack.append(i)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
                depth[nid] -= 1
            if outcome is not None and outcome(result):
                passes[name] += 1
            return result

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self):
        """Replace every binding of each traced function in the loaded
        hgsearch modules; a method has one binding, on its class."""
        modules = [m for k, m in sys.modules.items() if k == "hgsearch" or k.startswith("hgsearch.")]
        for nid, (mod, attr, _, outcome) in enumerate(SPANS):
            self._patch(modules, mod, attr, lambda fn: self._span(nid, fn, outcome))
        for mod, attr, name in COUNTS:
            self._patch(modules, mod, attr, lambda fn: self._count(name, fn))

    def _patch(self, modules, mod, attr, wrap):
        holders = modules
        owner = sys.modules["hgsearch." + mod]
        if "." in attr:
            cls, attr = attr.split(".")
            owner = getattr(owner, cls)
            holders = [owner]
        fn = getattr(owner, attr)
        wrapper = wrap(fn)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is fn:
                    self._patched.append((holder, key, fn))
                    setattr(holder, key, wrapper)

    def uninstall(self):
        for owner, key, fn in reversed(self._patched):
            setattr(owner, key, fn)
        self._patched.clear()

    def write(self, path):
        """All spans as tab-separated lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            fh.write("id\tparent\tname\tstart\tend\n")
            names = self.names
            for i in range(len(self.start)):
                fh.write(
                    f"{i}\t{self.parent[i]}\t{names[self.name_of[i]]}\t"
                    f"{self.start[i]:.9f}\t{self.end[i]:.9f}\n"
                )

    def metrics(self):
        """The PER_LAYER metrics computed from the recorded spans."""
        k = len(self.names)
        calls = [0] * k
        total = [0.0] * k
        selft = [0.0] * k
        child = [0.0] * len(self.start)
        children = Counter()
        name_of, parent, outer = self.name_of, self.parent, self.outer
        for i in range(len(self.start)):
            nid = name_of[i]
            dur = self.end[i] - self.start[i]
            calls[nid] += 1
            if outer[i]:
                total[nid] += dur
            p = parent[i]
            if p >= 0:
                child[p] += dur
                children[(name_of[p], nid)] += 1
        for i in range(len(self.start)):
            selft[name_of[i]] += self.end[i] - self.start[i] - child[i]
        index = {name: i for i, name in enumerate(self.names)}
        out = {}
        for metric, stat, ref in PER_LAYER:
            if stat == "count":
                out[metric] = self.counts[ref]
            elif stat == "pass":
                out[metric] = self.passes[ref]
            elif stat == "children":
                out[metric] = children[(index[ref[0]], index[ref[1]])]
            else:
                out[metric] = {"calls": calls, "total": total, "self": selft}[stat][index[ref]]
        return out

