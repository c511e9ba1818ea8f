"""Outside-in tracer for the per-layer metrics.

The tracer wraps every public function of the traced `widthlab` modules at
every place the package binds it, including the names that
`from .x import y` copies into other modules. Each wrapped call adds to its
function's call count, inclusive time and self time; a few functions also
feed counters derived from their arguments or results. Generators are timed
by their `next()` calls. Self time is a call's duration minus the time of
the wrapped calls it made.

Nothing inside the program is changed: the wrappers are installed for a
traced pass and removed afterwards, so untraced passes run the original
functions.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass

TRACED_MODULES = ("graph", "width", "instances", "decomposition", "bprog", "lbound", "cli")

# Left unwrapped, so their time stays in their callers' self time:
# per-bit and per-path helpers called inside inner loops, where a wrapper
# would cost more than the work, and the CLI's own handlers, because the CLI
# layer's boundary is `main` (its self time covers argument parsing, file
# reads and the JSON dump). `graph.adjacency_masks` is an lru_cache object,
# not a function; the benchmark clears it before each command instead.
UNWRAPPED = {"graph.iter_bits", "bprog.min_segments", "cli.build_parser"}
UNWRAPPED_PREFIXES = ("cli.cmd_",)

# Bindings the coverage check names explicitly (module attribute -> function).
REQUIRED_BINDINGS = (
    ("lbound", "build_obdd"), ("lbound", "enumerate_computational_paths"),
    ("lbound", "matching_width_exact"), ("width", "max_bipartite_matching"),
    ("width", "cut_graph"), ("decomposition", "settled_vertex_covers"),
)


def _first_arg(sig: inspect.Signature, args, kwargs):
    return next(iter(sig.bind(*args, **kwargs).arguments.values()))


@dataclass
class Stat:
    calls: int = 0
    incl_s: float = 0.0
    self_s: float = 0.0


class Tracer:
    """Wraps the package's public functions; aggregates their timings and counters."""

    def __init__(self) -> None:
        self.originals: dict[int, tuple[str, object]] = {}
        self.wrappers: dict[int, object] = {}
        for short in TRACED_MODULES:
            mod = sys.modules[f"widthlab.{short}"]
            for name, fn in vars(mod).items():
                qual = f"{short}.{name}"
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__ or qual in UNWRAPPED
                        or qual.startswith(UNWRAPPED_PREFIXES)):
                    continue
                self.originals[id(fn)] = (qual, fn)
                self.wrappers[id(fn)] = self._wrap(qual, fn)
        self.patched: list[tuple[object, str, object]] = []
        self.reset()

    # --- collection ---

    def reset(self) -> None:
        self.stats: dict[str, Stat] = {}
        self.counts: dict[str, int] = {}
        self.stack: list[list] = []  # [name, start, child_s]
        self.depth: dict[str, int] = {}

    def count(self, name: str, amount: int) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def _enter(self, name: str) -> list:
        self.depth[name] = self.depth.get(name, 0) + 1
        frame = [name, 0.0, 0.0]
        self.stack.append(frame)
        frame[1] = time.perf_counter()
        return frame

    def _exit(self, frame: list) -> None:
        end = time.perf_counter()
        name, start, child_s = frame
        self.stack.pop()
        dur = end - start
        if self.stack:
            self.stack[-1][2] += dur
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = Stat()
        st.calls += 1
        st.self_s += dur - child_s
        self.depth[name] -= 1
        if self.depth[name] == 0:  # inclusive time counts the outermost call only
            st.incl_s += dur

    def _wrap(self, qual: str, fn):
        hook = _HOOKS.get(qual)
        sig = inspect.signature(fn)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return _TimedIterator(tracer, qual, fn(*args, **kwargs))
            return wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._enter(qual)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(frame)
            if hook is not None:
                hook(tracer, sig, args, kwargs, result)
            return result
        return wrapper

    # --- installation ---

    def _bindings(self):
        for modname, mod in list(sys.modules.items()):
            if modname == "widthlab" or modname.startswith("widthlab."):
                for name, value in list(vars(mod).items()):
                    yield mod, name, value

    def install(self) -> None:
        for mod, name, value in self._bindings():
            wrapper = self.wrappers.get(id(value))
            if wrapper is not None and self.originals[id(value)][1] is value:
                setattr(mod, name, wrapper)
                self.patched.append((mod, name, value))

    def uninstall(self) -> None:
        for mod, name, value in reversed(self.patched):
            setattr(mod, name, value)
        self.patched.clear()

    def coverage_problems(self, installed: bool) -> list[str]:
        """Bindings that still point at an original (installed) or at a
        wrapper (uninstalled), and wrapped functions bound nowhere."""
        problems = []
        wrapper_ids = {id(w) for w in self.wrappers.values()}
        seen = set()
        for mod, name, value in self._bindings():
            if installed and id(value) in self.originals:
                problems.append(f"{mod.__name__}.{name} is not wrapped")
            if id(value) in wrapper_ids:
                seen.add(id(value))
                if not installed:
                    problems.append(f"{mod.__name__}.{name} is still wrapped")
        if installed:
            for key, (qual, _) in self.originals.items():
                if id(self.wrappers[key]) not in seen:
                    problems.append(f"{qual} is bound nowhere")
            for short, name in REQUIRED_BINDINGS:
                value = getattr(sys.modules[f"widthlab.{short}"], name, None)
                if id(value) not in wrapper_ids:
                    problems.append(f"widthlab.{short}.{name} is missing or not wrapped")
        return problems


class _TimedIterator:
    """Times each next() of a wrapped generator and counts its items."""

    def __init__(self, tracer: Tracer, name: str, gen) -> None:
        self.tracer, self.name, self.gen = tracer, name, gen

    def __iter__(self):
        return self

    def __next__(self):
        frame = self.tracer._enter(self.name)
        try:
            item = next(self.gen)
        finally:
            self.tracer._exit(frame)
        self.tracer.count(f"{self.name}.items", 1)
        if self.tracer.depth.get("lbound.check_distinctness"):
            self.tracer.count("lbound.check_distinctness.paths", 1)
        return item


# --- counters derived from arguments and results at the wrapped boundary ---


def _dp_states(tracer, sig, args, kwargs, result):
    tracer.count("width.dp_states", 1 << _first_arg(sig, args, kwargs).n)


def _prefix_cuts(tracer, sig, args, kwargs, result):
    tracer.count("width.prefix_cuts", max(_first_arg(sig, args, kwargs).n - 1, 0))


def _bag_entries(tracer, sig, args, kwargs, result):
    d = _first_arg(sig, args, kwargs)
    tracer.count("decomposition.bag_entries", sum(len(b) for b in d.bags))


def _prefix_sets(tracer, sig, args, kwargs, result):
    bound = sig.bind(*args, **kwargs).arguments
    if bound.get("orders") is None:
        tracer.count("bprog.prefix_sets", 1 << _first_arg(sig, args, kwargs).num_vars)


def _obdd_nodes(tracer, sig, args, kwargs, result):
    tracer.count("bprog.obdd_nodes", result.size)


def _family_members(tracer, sig, args, kwargs, result):
    tracer.count("lbound.check_distinctness.members", len(result.vectors))


_HOOKS = {
    "width.matching_width_exact": _dp_states,
    "width.pathwidth_exact": _dp_states,
    "width.mw_of_ordering": _prefix_cuts,
    "decomposition.format_pace": _bag_entries,
    "bprog.min_obdd_size_over_orders": _prefix_sets,
    "bprog.build_obdd": _obdd_nodes,
    "lbound.check_distinctness": _family_members,
}


# --- the per-layer metrics ---

# (name, unit, better, workload on which the benchmark asserts it is nonzero,
#  computed from instance sizes rather than measured)
LAYER_METRICS = [
    ("cli.main.calls", "count", "lower", "ordering_convert", False),
    ("cli.main.self_s", "s", "lower", "ordering_convert", False),
    ("graph.parse_dimacs_graph.s", "s", "lower", "ordering_convert", False),
    ("graph.cut_graph.calls", "count", "lower", "ordering_convert", False),
    ("graph.cut_graph.s", "s", "lower", "ordering_convert", False),
    ("graph.max_bipartite_matching.calls", "count", "lower", "ordering_convert", False),
    ("graph.max_bipartite_matching.s", "s", "lower", "ordering_convert", False),
    ("graph.min_vertex_cover_bipartite.calls", "count", "lower", "ordering_convert", False),
    ("graph.min_vertex_cover_bipartite.s", "s", "lower", "ordering_convert", False),
    ("width.matching_width_exact.s", "s", "lower", "exact_width", False),
    ("width.pathwidth_exact.s", "s", "lower", "exact_width", False),
    ("width.dp_states", "count", "lower", "exact_width", True),
    ("width.dp_ns_per_state", "ns/state", "lower", "exact_width", False),
    ("width.mw_of_ordering.s", "s", "lower", "ordering_convert", False),
    ("width.prefix_cuts", "count", "lower", "ordering_convert", True),
    ("width.settled_vertex_covers.s", "s", "lower", "ordering_convert", False),
    ("width.min_vc_containing.calls", "count", "lower", "ordering_convert", False),
    ("width.min_vc_containing.s", "s", "lower", "ordering_convert", False),
    ("instances.parse_dimacs_cnf.s", "s", "lower", "obdd_compile", False),
    ("instances.cnf_of_graph.s", "s", "lower", "lower_bound", False),
    ("instances.edge_variable.calls", "count", "lower", "lower_bound", False),
    ("instances.edge_variable.s", "s", "lower", "lower_bound", False),
    ("decomposition.path_decomposition_from_ordering.s", "s", "lower", "ordering_convert", False),
    ("decomposition.validate_decomposition.calls", "count", "lower", "ordering_convert", False),
    ("decomposition.validate_decomposition.s", "s", "lower", "ordering_convert", False),
    ("decomposition.ordering_from_path_decomposition.self_s", "s", "lower",
     "ordering_convert", False),
    ("decomposition.parse_pace.s", "s", "lower", "ordering_convert", False),
    ("decomposition.format_pace.s", "s", "lower", "ordering_convert", False),
    ("decomposition.ctree_decomposition.s", "s", "lower", "ordering_convert", False),
    ("decomposition.bag_entries", "count", "lower", "ordering_convert", False),
    ("bprog.min_obdd_size_over_orders.s", "s", "lower", "lower_bound", False),
    ("bprog.prefix_sets", "count", "lower", "lower_bound", True),
    ("bprog.min_obdd.ns_per_prefix_set", "ns/set", "lower", "lower_bound", False),
    ("bprog.build_obdd.calls", "count", "lower", "obdd_compile", False),
    ("bprog.build_obdd.s", "s", "lower", "obdd_compile", False),
    ("bprog.obdd_nodes", "count", "lower", "obdd_compile", False),
    ("bprog.build_obdd.ns_per_node", "ns/node", "lower", "obdd_compile", False),
    ("bprog.equivalence_vs_cnf.s", "s", "lower", "obdd_compile", False),
    ("bprog.evaluate.calls", "count", "lower", "obdd_compile", False),
    ("bprog.enumerate_computational_paths.s", "s", "lower", "obdd_compile", False),
    ("bprog.paths_enumerated", "count", "lower", "obdd_compile", False),
    ("bprog.check_c_nsobdd.self_s", "s", "lower", "obdd_compile", False),
    ("bprog.parse_bp.s", "s", "lower", "obdd_compile", False),
    ("bprog.format_bp.s", "s", "lower", "obdd_compile", False),
    ("lbound.run_lb_experiment.self_s", "s", "lower", "lower_bound", False),
    ("lbound.witness_cut.s", "s", "lower", "lower_bound", False),
    ("lbound.assignment_family.s", "s", "lower", "lower_bound", False),
    ("lbound.check_distinctness.self_s", "s", "lower", "lower_bound", False),
    ("lbound.separation_vector.calls", "count", "lower", "lower_bound", False),
    ("lbound.path_use_ratio", "ratio", "higher", "lower_bound", False),
    ("trace.overhead_s", "s", "lower", None, False),
]


def _per(numerator_s: float, count: int) -> float:
    return numerator_s * 1e9 / count if count else 0.0


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every per-layer metric of one traced pass, except trace.overhead_s."""
    st, counts = tracer.stats, tracer.counts

    def stat(name: str) -> Stat:
        return st.get(name, Stat())

    out: dict[str, float] = {}
    for name, *_ in LAYER_METRICS:
        fn, _, field = name.rpartition(".")
        if field == "calls":
            out[name] = stat(fn).calls
        elif field == "s":
            out[name] = stat(fn).incl_s
        elif field == "self_s":
            out[name] = stat(fn).self_s
    out["width.dp_states"] = counts.get("width.dp_states", 0)
    out["width.dp_ns_per_state"] = _per(
        stat("width.matching_width_exact").incl_s + stat("width.pathwidth_exact").incl_s,
        out["width.dp_states"])
    out["width.prefix_cuts"] = counts.get("width.prefix_cuts", 0)
    out["decomposition.bag_entries"] = counts.get("decomposition.bag_entries", 0)
    out["bprog.prefix_sets"] = counts.get("bprog.prefix_sets", 0)
    out["bprog.min_obdd.ns_per_prefix_set"] = _per(
        stat("bprog.min_obdd_size_over_orders").incl_s, out["bprog.prefix_sets"])
    out["bprog.obdd_nodes"] = counts.get("bprog.obdd_nodes", 0)
    out["bprog.build_obdd.ns_per_node"] = _per(
        stat("bprog.build_obdd").incl_s, out["bprog.obdd_nodes"])
    out["bprog.paths_enumerated"] = counts.get("bprog.enumerate_computational_paths.items", 0)
    attempts = counts.get("lbound.check_distinctness.paths", 0)
    out["lbound.path_use_ratio"] = (
        counts.get("lbound.check_distinctness.members", 0) / attempts if attempts else 0.0)
    return out
