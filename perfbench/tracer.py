"""Span tracing of hodgemoments from outside the package.

``Tracer.install`` replaces every public function and method of each
hodgemoments module with a wrapper that records one span per call: name,
start, end and the index of the enclosing span.  Names bound by ``from .x
import y`` in other modules are replaced too, so ``hodge.build_chain`` is
traced like ``chains.build_chain``.  ``uninstall`` puts the originals back.

Helpers called once per exponent tuple or per chain monomial (``HOT``) get no
span: their time stays in the caller's span, and a few of them are counted
instead.  Spans stay in memory until ``metrics`` reduces them.
"""

import functools
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from fractions import Fraction
from math import comb
from time import perf_counter

MODULES = ("cli", "hodge", "chains", "linalg", "weyl", "counting", "cyclo",
           "series", "poly", "multiindex", "families")

# Layers whose self time is reported; "bench" is the benchmark's own loop.
# multiindex has no spans (all of its functions are in HOT).
SELF_LAYERS = ("cli", "hodge", "chains", "linalg", "weyl", "counting", "cyclo",
               "series", "poly", "families", "bench")

HOT = frozenset({
    "multiindex.weak_compositions", "multiindex.weight", "multiindex.rotate",
    "multiindex.orbit", "multiindex.canonical_rotation",
    "cyclo.cyclotomic_poly", "cyclo.tuple_vanishes", "cyclo.signed_shift_sum",
    "cyclo.CycloInt",
    "chains.shift_action", "chains.corner_action",
    "chains.GradedChain.theta_bar_mono", "chains.GradedChain.slice_monomials",
    "chains.GradedChain.slice_index", "chains.GradedChain.tower_slice",
})

ROUTE_CLOSED = ("hodge.hodge_kl_closed", "hodge.hodge_kl3_div3", "hodge.hodge_airy_closed",
                "hodge.mixed_hodge_tilde_kl3", "hodge.mixed_hodge_kl3",
                "hodge.hodge_v21[closed]")
ROUTE_BASIS = ("hodge.hodge_kl_from_basis", "hodge.hodge_airy_from_basis",
               "hodge.hodge_v21[basis]")

# (metric, unit) pairs reported by Tracer.metrics, in order.
TRACE_METRICS = (
    *((f"{layer}.self_s", "s") for layer in SELF_LAYERS),
    ("linalg.tracked.self_s", "s"),
    ("linalg.sparse_add_row.calls", "count"),
    ("linalg.tracked_reduce.calls", "count"),
    ("linalg.independent_ratio", "ratio"),
    ("linalg.fill_ratio", "ratio"),
    ("linalg.max_coeff_bits", "bits"),
    ("chains.build_chain.s", "s"),
    ("chains.build_chain.repeat_ratio", "ratio"),
    ("chains.basis.repeat_ratio", "ratio"),
    ("chains.theta_bar_rows.s", "s"),
    ("chains.theta_bar_rows.rows", "count"),
    ("chains.theta_bar_rows.nnz", "count"),
    ("chains.max_slice", "count"),
    ("chains.cohomology_basis.self_s", "s"),
    ("chains.middle_cohomology_basis.self_s", "s"),
    ("chains.slice_dims.s", "s"),
    ("chains.jordan_block_sizes.s", "s"),
    ("chains.shift_coker_dims.s", "s"),
    ("chains.eigenvector_product.s", "s"),
    ("cyclo.vanishing_tuple_count.s", "s"),
    ("cyclo.tuples_tested", "count"),
    ("cyclo.vanishing_orbits.s", "s"),
    ("cyclo.cycloint_mul.calls", "count"),
    ("poly.poly_mul.calls", "count"),
    ("series.expand_rational.s", "s"),
    ("series.cells", "count"),
    ("counting.lattice_step.calls", "count"),
    ("counting.block_multiplicity_poly.s", "s"),
    ("multiindex.weak_compositions.items", "count"),
    ("hodge.verify.self_s", "s"),
    ("hodge.verify.checks", "count"),
    ("hodge.route_closed.s", "s"),
    ("hodge.route_basis.s", "s"),
    ("trace.spans", "count"),
    ("trace.wall_s", "s"),
)


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(abs(value.numerator).bit_length(), value.denominator.bit_length())
    return abs(value).bit_length()


def _ratio(num, den) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []          # (name, start, end, parent index or -1)
        self.counters = Counter()
        self._stack = [-1]
        self._patches = []       # (owner, attribute, original value)
        self._seen = set()       # build_chain / basis keys already computed
        self._orbits = None      # the cached vanishing_orbits, unwrapped
        self._orbit_misses = 0

    # -- installing -------------------------------------------------------

    def install(self):
        pkg = importlib.import_module("hodgemoments")
        mods = {name: importlib.import_module(f"hodgemoments.{name}") for name in MODULES}
        replace = {}             # id(original) -> (original, wrapper)
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                name = f"{short}.{attr}"
                if name in HOT:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(obj, name)
                elif callable(obj):
                    replace[id(obj)] = (obj, self._span(obj, name))
        cyclo = mods["cyclo"]
        self._orbits = cyclo.vanishing_orbits
        self._orbit_misses = self._orbits.cache_info().misses
        mul = self._count(cyclo.CycloInt.__mul__, "cyclo.cycloint_mul.calls")
        self._patch(cyclo.CycloInt, "__mul__", mul)
        self._patch(cyclo.CycloInt, "__rmul__", mul)
        # The recursion inside multiindex keeps the original generator, so
        # only the tuples handed to other modules are counted.
        weak = mods["multiindex"].weak_compositions
        items = self._count_items(weak, "multiindex.weak_compositions.items")
        for mod in [pkg, *mods.values()]:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])
                elif obj is weak and mod is not mods["multiindex"]:
                    self._patch(mod, attr, items)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield self
        finally:
            self.uninstall()

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, cls, prefix):
        for attr, obj in list(vars(cls).items()):
            name = f"{prefix}.{attr}"
            if attr.startswith("_") or name in HOT:
                continue
            if isinstance(obj, classmethod):
                self._patch(cls, attr, classmethod(self._span(obj.__func__, name)))
            elif callable(obj) and not isinstance(obj, (type, staticmethod)):
                self._patch(cls, attr, self._span(obj, name))

    # -- wrappers ----------------------------------------------------------

    def _span(self, fn, name):
        hook = getattr(self, "_after_" + name.replace(".", "_"), None)
        if name == "hodge.hodge_v21":
            def name_of(args, kwargs):
                route = args[0] if args else kwargs.get("route", "basis")
                return f"hodge.hodge_v21[{route}]"
        else:
            name_of = None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            opened = self._open()
            try:
                result = fn(*args, **kwargs)
                if hook is not None:
                    hook(args, kwargs, result)
                return result
            finally:
                self._close(opened, name if name_of is None else name_of(args, kwargs))
        return wrapper

    def _count(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counters[counter] += 1
            return fn(*args, **kwargs)
        return wrapper

    def _count_items(self, fn, counter):
        counters = self.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counters[counter] += 1
                yield item
        return wrapper

    def _open(self):
        idx = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1]
        self._stack.append(idx)
        return idx, parent, perf_counter()

    def _close(self, opened, name):
        end = perf_counter()
        idx, parent, start = opened
        self._stack.pop()
        self.spans[idx] = (name, start, end, parent)

    @contextmanager
    def span(self, name):
        """A span around benchmark code, e.g. the root span of one pass."""
        opened = self._open()
        try:
            yield
        finally:
            self._close(opened, name)

    # -- counters taken where the work happens -----------------------------

    def _after_linalg_SparseEchelon_add_row(self, args, kwargs, independent):
        ech, vec = args[0], args[1]
        c = self.counters
        c["offered_nnz"] += sum(1 for v in vec.values() if v)
        if independent:
            c["independent"] += 1
            row = ech.rows[next(reversed(ech.rows))]  # rows keeps insertion order
            c["stored_nnz"] += len(row)
            c["max_bits"] = max(c["max_bits"], max(_bits(v) for v in row.values()))

    def _after_chains_build_chain(self, args, kwargs, chain):
        self._repeat("build_chain", (chain.family, chain.n, chain.k, chain.max_degree))

    def _after_chains_cohomology_basis(self, args, kwargs, basis):
        chain = args[0]
        self._repeat("basis", ("full", chain.family, chain.n, chain.k, chain.max_degree))

    def _after_chains_middle_cohomology_basis(self, args, kwargs, basis):
        chain = args[0]
        self._repeat("basis", ("mid", chain.family, chain.n, chain.k, chain.max_degree))

    def _repeat(self, what, key):
        self.counters[what + ".calls"] += 1
        if (what, key) in self._seen:
            self.counters[what + ".repeats"] += 1
        self._seen.add((what, key))

    def _after_chains_GradedChain_theta_bar_rows(self, args, kwargs, rows):
        c = self.counters
        c["tbr_rows"] += len(rows)
        c["tbr_nnz"] += sum(len(r) for r in rows)
        c["max_slice"] = max(c["max_slice"], len(rows))

    def _after_cyclo_vanishing_tuple_count(self, args, kwargs, result):
        m, k = args
        self.counters["tuples_tested"] += comb(k + m - 1, m - 1)

    def _after_cyclo_vanishing_orbits(self, args, kwargs, result):
        # cached: only a cache miss enumerates the tuples
        misses = self._orbits.cache_info().misses
        if misses > self._orbit_misses:
            m, k = args
            self.counters["tuples_tested"] += comb(k + m - 1, m - 1)
        self._orbit_misses = misses

    def _after_series_expand_rational(self, args, kwargs, result):
        self.counters["cells"] += result.trunc_t * result.trunc_x

    def _after_hodge_verify(self, args, kwargs, report):
        self.counters["verify_checks"] += len(report.checks)

    # -- reduction ---------------------------------------------------------

    def self_times(self) -> list[float]:
        """Per span: its duration minus the durations of its direct children."""
        out = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                out[parent] -= end - start
        return out

    def inclusive(self, names) -> float:
        """Total duration of spans named in `names`, not counted twice when nested."""
        names = set(names)
        spans = self.spans
        total = 0.0
        for name, start, end, parent in spans:
            if name not in names:
                continue
            p = parent
            while p >= 0 and spans[p][0] not in names:
                p = spans[p][3]
            if p < 0:
                total += end - start
        return total

    def metrics(self) -> dict:
        c = self.counters
        calls = Counter(name for name, *_ in self.spans)
        own = self.self_times()
        layer_self = defaultdict(float)
        name_self = defaultdict(float)
        for (name, *_), s in zip(self.spans, own):
            layer_self[name.split(".", 1)[0]] += s
            name_self[name] += s
        roots = [end - start for _, start, end, parent in self.spans if parent < 0]
        out = {f"{layer}.self_s": layer_self[layer] for layer in SELF_LAYERS}
        out.update({
            "linalg.tracked.self_s": sum(s for n, s in name_self.items()
                                         if n.startswith("linalg.TrackedEchelon.")),
            "linalg.sparse_add_row.calls": calls["linalg.SparseEchelon.add_row"],
            "linalg.tracked_reduce.calls": calls["linalg.TrackedEchelon.reduce"],
            "linalg.independent_ratio": _ratio(c["independent"],
                                               calls["linalg.SparseEchelon.add_row"]),
            "linalg.fill_ratio": _ratio(c["stored_nnz"], c["offered_nnz"]),
            "linalg.max_coeff_bits": c["max_bits"],
            "chains.build_chain.s": self.inclusive(["chains.build_chain"]),
            "chains.build_chain.repeat_ratio": _ratio(c["build_chain.repeats"],
                                                      c["build_chain.calls"]),
            "chains.basis.repeat_ratio": _ratio(c["basis.repeats"], c["basis.calls"]),
            "chains.theta_bar_rows.s": self.inclusive(["chains.GradedChain.theta_bar_rows"]),
            "chains.theta_bar_rows.rows": c["tbr_rows"],
            "chains.theta_bar_rows.nnz": c["tbr_nnz"],
            "chains.max_slice": c["max_slice"],
            "chains.cohomology_basis.self_s": name_self["chains.cohomology_basis"],
            "chains.middle_cohomology_basis.self_s": name_self["chains.middle_cohomology_basis"],
            "chains.slice_dims.s": self.inclusive(["chains.coker_slice_dims",
                                                   "chains.kernel_slice_dims"]),
            "chains.jordan_block_sizes.s": self.inclusive(["chains.jordan_block_sizes"]),
            "chains.shift_coker_dims.s": self.inclusive(["chains.shift_coker_dims"]),
            "chains.eigenvector_product.s": self.inclusive(["chains.eigenvector_product"]),
            "cyclo.vanishing_tuple_count.s": self.inclusive(["cyclo.vanishing_tuple_count"]),
            "cyclo.tuples_tested": c["tuples_tested"],
            "cyclo.vanishing_orbits.s": self.inclusive(["cyclo.vanishing_orbits"]),
            "cyclo.cycloint_mul.calls": c["cyclo.cycloint_mul.calls"],
            "poly.poly_mul.calls": calls["poly.poly_mul"],
            "series.expand_rational.s": self.inclusive(["series.expand_rational"]),
            "series.cells": c["cells"],
            "counting.lattice_step.calls": calls["counting.lattice_step"],
            "counting.block_multiplicity_poly.s":
                self.inclusive(["counting.block_multiplicity_poly"]),
            "multiindex.weak_compositions.items": c["multiindex.weak_compositions.items"],
            "hodge.verify.self_s": name_self["hodge.verify"],
            "hodge.verify.checks": c["verify_checks"],
            "hodge.route_closed.s": self.inclusive(ROUTE_CLOSED),
            "hodge.route_basis.s": self.inclusive(ROUTE_BASIS),
            "trace.spans": len(self.spans),
            "trace.wall_s": sum(roots),
        })
        return out
