"""Spans around the public calls into each congrex layer, installed from
outside the package for the traced run only.

``Tracer.install`` replaces the named functions and methods with wrappers
that record a span: name, parent span, job id, start and end.  A module
function is rebound under every ``congrex.*`` attribute that refers to the
same object, because ``cli`` and ``analyzer`` import by name.  Spans stay in
memory until the pass ends.  Hot leaf functions such as ``Partition.join``
are deliberately not wrapped; the five function-algebra operations of the
clone closure only increment a counter.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "algebra", "groups", "lattice", "clones", "analyzer")

# (module, attribute path, span name)
TARGETS = (
    ("cli", "main", "cli"),
    ("algebra", "FiniteAlgebra.principal_congruence", "algebra.principal_congruence"),
    ("algebra", "FiniteAlgebra.all_congruences", "algebra.all_congruences"),
    ("algebra", "direct_product", "algebra.direct_product"),
    ("groups", "GroupStructure.__init__", "groups.structure_init"),
    ("groups", "GroupStructure.subgroup_closure", "groups.subgroup_closure"),
    ("groups", "normal_subgroups", "groups.normal_subgroups"),
    ("groups", "split_normal_subgroup_lattice", "groups.split_normal_subgroup_lattice"),
    ("groups", "lower_central_series", "groups.lower_central_series"),
    ("groups", "sylow_decomposition", "groups.sylow_decomposition"),
    ("lattice", "from_congruences", "lattice.from_congruences"),
    ("lattice", "FiniteLattice.__init__", "lattice.init"),
    ("lattice", "splits", "lattice.split"),
    ("lattice", "splits_strongly", "lattice.split"),
    ("lattice", "is_modular", "lattice.is_modular"),
    ("clones", "clone_closure", "clones.clone_closure"),
    ("clones", "comp_fragment", "clones.comp_fragment"),
    ("clones", "is_congruence_preserving", "clones.is_congruence_preserving"),
    ("clones", "preserves_relation", "clones.preserves_relation"),
    ("clones", "tensor_fragments", "clones.tensor"),
    ("clones", "skew_congruences", "clones.skew_congruences"),
    # defined in clones, but it is the witness pipeline's Mal'cev step
    ("clones", "malcev_term", "analyzer.malcev_term"),
    ("analyzer", "decide_group", "analyzer.decide"),
    ("analyzer", "decide_product", "analyzer.decide"),
    ("analyzer", "group_witness_pipeline", "analyzer.witness_pipeline"),
    ("analyzer", "verify_witness", "analyzer.verify_witness"),
    ("analyzer", "check_centrality", "analyzer.check_centrality"),
    ("analyzer", "build_commutator_witness", "analyzer.build_commutator_witness"),
)

# aggregated per parent span, see Tracer
LEAVES = frozenset({"groups.subgroup_closure", "clones.is_congruence_preserving"})

# called once per closure candidate: counted, not timed
COUNTED = tuple(
    ("clones", name, "clones.compose")
    for name in ("rotate_args", "swap_args", "diagonal_minor", "add_dummy_arg", "compose_first")
)

# what a span keeps of its call, for the ratio metrics
INFO = {
    # with the job, the algebra object keeps equal partitions of two algebras apart
    "algebra.principal_congruence": lambda args, result: (id(args[0]), result),
    "groups.normal_subgroups": lambda args, result: len(result),
    "lattice.init": lambda args, result: args[0].size,
    "clones.clone_closure": lambda args, result: result.member_count(),
}

# name -> unit of every metric ``summarize`` returns
PER_LAYER = {
    "cli.self_s": "s",
    "cli.job_p50_s": "s",
    "cli.pass_wall_s": "s",
    "cli.pass_cpu_s": "s",
    "algebra.principal_congruence.calls": "count",
    "algebra.principal_congruence.s": "s",
    "algebra.principal_distinct_ratio": "ratio",
    "algebra.all_congruences.calls": "count",
    "algebra.all_congruences.self_s": "s",
    "algebra.direct_product.s": "s",
    "groups.structure_init.s": "s",
    "groups.normal_subgroups.self_s": "s",
    "groups.subgroup_closure.calls": "count",
    "groups.subgroup_closure.s": "s",
    "groups.closures_per_subgroup": "ratio",
    "groups.lower_central_series.s": "s",
    "groups.sylow_decomposition.s": "s",
    "lattice.from_congruences.self_s": "s",
    "lattice.init.s": "s",
    "lattice.elements": "count",
    "lattice.split.s": "s",
    "lattice.is_modular.s": "s",
    "clones.clone_closure.calls": "count",
    "clones.clone_closure.self_s": "s",
    "clones.closure_members": "count",
    "clones.compose.calls": "count",
    "clones.closure_yield": "ratio",
    "clones.comp_fragment.self_s": "s",
    "clones.is_congruence_preserving.calls": "count",
    "clones.is_congruence_preserving.s": "s",
    "clones.preserves_relation.calls": "count",
    "clones.preserves_relation.s": "s",
    "clones.tensor.s": "s",
    "analyzer.decide.self_s": "s",
    "analyzer.verify_witness.self_s": "s",
    "analyzer.build_commutator_witness.s": "s",
    "analyzer.check_centrality.self_s": "s",
    "analyzer.malcev_term.s": "s",
    **{f"layer.{layer}.self_s": "s" for layer in LAYERS},
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


class Tracer:
    """Records spans while installed; ``job`` tags each span.

    Calls of the ``LEAVES`` run hundreds of thousands of times and call no
    other wrapped function, so they are kept as one aggregate per parent
    span (calls and seconds) instead of one span each.
    """

    def __init__(self):
        self.spans = []  # [name, parent index, job, start, end, info]
        self.leaves = {}  # (name, parent index) -> [calls, seconds]
        self.counts = Counter()
        self.job = -1
        self._current = -1
        self._saved = []  # (owner, attribute, original)

    def _span_wrapper(self, fn, name):
        spans = self.spans
        info = INFO.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, self._current, self.job, 0.0, 0.0, None]
            self._current = len(spans)
            spans.append(rec)
            rec[3] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[4] = clock()
                self._current = rec[1]
            if info is not None:
                rec[5] = info(args, result)
            return result

        return wrapper

    def _leaf_wrapper(self, fn, name):
        leaves = self.leaves
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                agg = leaves.get((name, self._current))
                if agg is None:
                    leaves[(name, self._current)] = [1, elapsed]
                else:
                    agg[0] += 1
                    agg[1] += elapsed

        return wrapper

    def _count_wrapper(self, fn, name):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _make(self, fn, name):
        if name in LEAVES:
            return self._leaf_wrapper(fn, name)
        return self._span_wrapper(fn, name)

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        modules = [
            m for n, m in list(sys.modules.items())
            if m is not None and (n == "congrex" or n.startswith("congrex."))
        ]
        for targets, make in ((TARGETS, self._make), (COUNTED, self._count_wrapper)):
            for module_name, path, name in targets:
                module = importlib.import_module(f"congrex.{module_name}")
                if "." in path:
                    owner_name, attr = path.split(".")
                    owner = getattr(module, owner_name)
                    original = owner.__dict__[attr]
                    self._saved.append((owner, attr, original))
                    setattr(owner, attr, make(original, name))
                    continue
                original = getattr(module, path)
                wrapper = make(original, name)
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            self._saved.append((mod, attr, original))
                            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved = []

    def summary(self) -> dict:
        return summarize(self.spans, self.leaves, self.counts)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def summarize(spans, leaves, counts) -> dict:
    """Per-layer metrics from the spans: totals, self times and ratios.

    A span's self time is its duration minus its children's; a span inside
    one of the same name adds to the count but not again to the total.
    """
    child = [0.0] * len(spans)
    total = defaultdict(float)
    own = defaultdict(float)
    calls = Counter()
    for (name, parent), (n, seconds) in leaves.items():
        calls[name] += n
        total[name] += seconds
        own[name] += seconds
        if parent >= 0:
            child[parent] += seconds
    for name, parent, _, start, end, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    for i, (name, parent, _, start, end, _) in enumerate(spans):
        calls[name] += 1
        own[name] += end - start - child[i]
        if parent < 0 or spans[parent][0] != name:
            total[name] += end - start

    def info(name, outermost=False):
        return [
            s[5] for s in spans
            if s[0] == name and not (outermost and s[1] >= 0 and spans[s[1]][0] == name)
        ]

    principal = [(s[2], s[5]) for s in spans if s[0] == "algebra.principal_congruence"]
    in_normal = sum(
        n for (name, parent), (n, _) in leaves.items()
        if name == "groups.subgroup_closure" and parent >= 0
        and spans[parent][0] == "groups.normal_subgroups"
    )
    members = sum(info("clones.clone_closure", outermost=True))
    m = {}
    for metric in PER_LAYER:
        name, _, kind = metric.rpartition(".")
        if kind == "calls":
            m[metric] = calls[name]
        elif kind == "self_s":
            m[metric] = own[name]
        elif kind == "s":
            m[metric] = total[name]
    for layer in LAYERS:
        m[f"layer.{layer}.self_s"] = sum(
            t for n, t in own.items() if n.split(".")[0] == layer
        )
    m["clones.compose.calls"] = counts["clones.compose"]
    m["algebra.principal_distinct_ratio"] = _ratio(len(set(principal)), len(principal))
    m["groups.closures_per_subgroup"] = _ratio(in_normal, sum(info("groups.normal_subgroups")))
    m["lattice.elements"] = sum(info("lattice.init"))
    m["clones.closure_members"] = members
    m["clones.closure_yield"] = _ratio(members, counts["clones.compose"])
    m["trace.spans"] = len(spans)
    # the caller fills these in from the untraced pass
    m["cli.job_p50_s"] = 0.0
    m["cli.pass_wall_s"] = 0.0
    m["cli.pass_cpu_s"] = 0.0
    m["trace.overhead_s"] = 0.0
    return m


def dominant_layer(metrics: dict) -> str:
    return max(LAYERS, key=lambda layer: metrics[f"layer.{layer}.self_s"])


def spans_json(spans, leaves) -> dict:
    """The spans and leaf aggregates as plain lists, without per-call info."""
    names = sorted({s[0] for s in spans} | {name for name, _ in leaves})
    index = {n: i for i, n in enumerate(names)}
    return {
        "names": names,
        "span_fields": ["name", "parent", "job", "start", "end"],
        "spans": [[index[s[0]], s[1], s[2], s[3], s[4]] for s in spans],
        "leaf_fields": ["name", "parent", "calls", "seconds"],
        "leaves": [[index[name], parent, n, t] for (name, parent), (n, t) in leaves.items()],
    }
