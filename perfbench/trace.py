"""Layer spans and counters, recorded from outside the library.

Each layer's public entry points are wrapped at the binding their callers
look them up through (``picweyl.plane.kernel_basis`` as well as
``picweyl.projgeom.kernel_basis``), so calls made inside the library are
seen too.  A span records name, start, end and parent in memory; a layer's
self time is its spans' duration minus the part covered by child spans.
Hot methods (field arithmetic, the cubic group law, submodule membership)
get count-only hooks, since a span per call would swamp what it measures.
Nothing under ``src/`` is edited: ``install`` patches attributes at run
time and ``restore`` puts every original back.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from time import perf_counter

# (module, attribute, span name): every binding a caller resolves at call time
SPANS = (
    ("projgeom", "row_reduce", "projgeom.row_reduce"),
    ("projgeom", "kernel_basis", "projgeom.kernel_basis"),
    ("plane", "kernel_basis", "projgeom.kernel_basis"),
    ("cubic", "kernel_basis", "projgeom.kernel_basis"),
    ("projgeom", "matrix_rank", "projgeom.matrix_rank"),
    ("cubic", "matrix_rank", "projgeom.matrix_rank"),
    ("plane", "effectivity_test", "plane.effectivity_test"),
    ("plane", "is_unnodal_halphen", "plane.is_unnodal_halphen"),
    ("plane", "is_coble_set", "plane.is_coble_set"),
    ("plane", "halphen_prohibited_classes", "catalog.halphen_prohibited_classes"),
    ("catalog", "coble_conditions", "catalog.coble_conditions"),
    ("catalog", "enumerate_roots", "catalog.enumerate_roots"),
    ("cubic", "classify_cubic", "cubic.classify_cubic"),
    ("cubic", "roots_in_field", "polys.roots_in_field"),
    ("polys", "roots_in_field", "polys.roots_in_field"),
    ("cubic", "image_order", "cubic.image_order"),
    ("cubic", "torsion_set_check", "cubic.torsion_set_check"),
    ("cubic", "kernel_submodule_generators", "cubic.kernel_submodule_generators"),
    ("cubic", "unnodal_by_kernel", "cubic.unnodal_by_kernel"),
    ("cubic", "harbourne_check", "cubic.harbourne_check"),
    ("cubic", "halphen_index_check", "cubic.halphen_index_check"),
    ("residue", "represent_unit", "residue.represent_unit"),
    ("residue", "witt_extend", "residue.witt_extend"),
    ("residue", "adjust_to_spin", "residue.adjust_to_spin"),
    ("residue", "smith_normal_form", "smith.smith_normal_form"),
    ("smith", "smith_normal_form", "smith.smith_normal_form"),
    ("weyl", "noether_reduce", "weyl.noether_reduce"),
    ("weyl", "word_to_isometry", "weyl.word_to_isometry"),
    ("weyl", "classify_isometry", "weyl.classify_isometry"),
)

# (class path, method, counter name)
COUNTS = (
    ("fields.FieldElement", "__mul__", "fields.mul"),
    ("fields.FieldElement", "__rmul__", "fields.mul"),
    ("fields.FieldElement", "__truediv__", "fields.mul"),
    ("fields.FieldElement", "__rtruediv__", "fields.mul"),
    ("fields.FieldElement", "__truediv__", "fields.inv"),
    ("fields.FieldElement", "__rtruediv__", "fields.inv"),
    ("fields.FieldElement", "inverse", "fields.inv"),
    ("fields.FieldElement", "__add__", "fields.addsub"),
    ("fields.FieldElement", "__radd__", "fields.addsub"),
    ("fields.FieldElement", "__sub__", "fields.addsub"),
    ("fields.FieldElement", "__rsub__", "fields.addsub"),
    ("fields.FieldElement", "__neg__", "fields.addsub"),
    ("cubic.CubicCurveModel", "add", "cubic.group_add"),
    ("cubic.CubicCurveModel", "scalar", "cubic.group_scalar"),
    ("residue.ResidueSubmodule", "contains", "residue.contains"),
)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.stack: list[int] = []
        self.counts: Counter = Counter()
        self.cells = 0  # sum of rows x cols over row_reduce calls
        self.roots = 0  # roots returned by enumerate_roots
        self._saved: list[tuple[object, str, object]] = []

    # -- wrappers ----------------------------------------------------------

    def _span(self, name, fn):
        spans, stack = self.spans, self.stack
        tracer = self

        def wrapper(*args, **kwargs):
            label = name
            if name == "residue.find_root":
                method = args[1] if len(args) > 1 else kwargs.get("method", "theory")
                label = "residue.find_root." + method.replace("-", "_")
            elif name == "projgeom.row_reduce" and args and args[0]:
                tracer.cells += len(args[0]) * len(args[0][0])
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if name == "catalog.enumerate_roots":
                tracer.roots += len(out)
            return out

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self, modules: dict) -> None:
        """Patch every binding in SPANS and COUNTS; modules maps the short
        module names used there to the imported picweyl modules."""
        for mod, attr, name in SPANS:
            owner = modules[mod]
            self._patch(owner, attr, self._span(name, getattr(owner, attr)))
        owner = modules["residue"]
        self._patch(
            owner,
            "find_root_in_submodule",
            self._span("residue.find_root", owner.find_root_in_submodule),
        )
        for path, attr, name in COUNTS:
            mod, cls = path.split(".")
            owner = getattr(modules[mod], cls)
            self._patch(owner, attr, self._count(name, getattr(owner, attr)))

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- summaries -----------------------------------------------------------

    def calls(self) -> Counter:
        return Counter(rec[0] for rec in self.spans)

    def self_seconds(self) -> dict[str, float]:
        child = [0.0] * len(self.spans)
        for rec in self.spans:
            if rec[3] >= 0:
                child[rec[3]] += rec[2] - rec[1]
        out: dict[str, float] = defaultdict(float)
        for i, rec in enumerate(self.spans):
            out[rec[0]] += rec[2] - rec[1] - child[i]
        return dict(out)
