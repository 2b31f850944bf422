"""Outside-in span tracer for the flagstab benchmark.

Layers are the package's modules.  The tracer measures them from the
outside: it replaces each traced public name (module functions, and the
kernel methods of `Mat`, `Vec`, `Subspace` and `LinearSolver`) by a
wrapper that records a span, in every module namespace that binds it.
`witness.py` binds `in_stabilizer`, `unipotent_exponent`,
`canonical_coarsening`, `jordan_chains`, `select_pairs`, `build_h` and
`verify_witness` as module globals, so the stages of `construct_witness`
show up as its child spans without any change to the package.

Spans are kept in memory as parallel arrays (name, start, end, parent,
op id) and written out once, at the end of the run.  Nothing here runs
at import time; `Tracer.install()` patches and `uninstall()` restores.
"""

import functools
import gzip
import sys
import time
from array import array
from fractions import Fraction

# (span name, module, attribute) for module-level functions.
FUNCTIONS = [
    ("linalg.kernel", "flagstab.linalg", "kernel"),
    ("series.in_stabilizer", "flagstab.series", "in_stabilizer"),
    ("series.jump_of", "flagstab.series", "jump_of"),
    ("series.canonical_coarsening", "flagstab.series", "canonical_coarsening"),
    ("series.is_adapted_basis", "flagstab.series", "is_adapted_basis"),
    ("series.section_series", "flagstab.series", "section_series"),
    ("unipotent.exponent", "flagstab.unipotent", "unipotent_exponent"),
    ("unipotent.kernel_chain", "flagstab.unipotent", "kernel_chain"),
    ("unipotent.jordan_chains", "flagstab.unipotent", "jordan_chains"),
    ("witness.construct_witness", "flagstab.witness", "construct_witness"),
    ("witness.extend_witness", "flagstab.witness", "extend_witness"),
    ("witness.invariant_core", "flagstab.witness", "invariant_core"),
    ("witness.straighten_chains", "flagstab.witness", "straighten_chains"),
    ("witness.select_pairs", "flagstab.witness", "select_pairs"),
    ("witness.build_h", "flagstab.witness", "build_h"),
    ("witness.verify_witness", "flagstab.witness", "verify_witness"),
    ("transvections.commutator", "flagstab.transvections", "commutator"),
    ("transvections.make_transvection", "flagstab.transvections", "make_transvection"),
    (
        "transvections.transvection_commutator_check",
        "flagstab.transvections",
        "transvection_commutator_check",
    ),
    (
        "transvections.one_plus_eta_commutator",
        "flagstab.transvections",
        "one_plus_eta_commutator",
    ),
    (
        "transvections.fixed_line_engel_witness",
        "flagstab.transvections",
        "fixed_line_engel_witness",
    ),
    ("decomposition.split_chain", "flagstab.decomposition", "split_chain"),
    ("decomposition.patch_sections", "flagstab.decomposition", "patch_sections"),
    ("builder.module_lcs", "flagstab.builder", "module_lcs"),
    ("builder.refine_series", "flagstab.builder", "refine_series"),
    ("builder.mclain_truncate", "flagstab.builder", "mclain_truncate"),
    ("cli.parse_problem", "flagstab.cli", "parse_problem"),
    ("cli.format_problem", "flagstab.cli", "format_problem"),
]

# (span name, class name in flagstab.linalg, attribute) for kernel methods.
METHODS = [
    ("linalg.matmul", "Mat", "__matmul__"),
    ("linalg.vecmat", "Vec", "__matmul__"),
    ("linalg.inverse", "Mat", "inverse"),
    ("linalg.span", "Subspace", "span"),
    ("linalg.intersect", "Subspace", "intersect"),
    ("linalg.contains_vec", "Subspace", "contains_vec"),
    ("linalg.solver_build", "LinearSolver", "__init__"),
    ("linalg.solve", "LinearSolver", "solve"),
]

LINALG_KERNELS = [name.split(".", 1)[1] for name, _, _ in METHODS] + ["kernel"]

# A traced call whose nearest traced ancestor is construct_witness is a
# stage of it; everything else under construct_witness is the probe.
STAGES = {
    "series.in_stabilizer": "stabilizer",
    "unipotent.exponent": "exponent",
    "series.canonical_coarsening": "coarsening",
    "unipotent.jordan_chains": "jordan",
    "witness.straighten_chains": "straighten",
    "witness.select_pairs": "select",
    "witness.build_h": "build_h",
    "witness.verify_witness": "verify",
}
STAGE_NAMES = list(STAGES.values()) + ["probe"]

# Results of these kernels are scanned for the largest QQ bit length.
_BITS_SCANNED = {
    "linalg.matmul",
    "linalg.vecmat",
    "linalg.inverse",
    "linalg.span",
    "linalg.intersect",
    "linalg.kernel",
    "linalg.solve",
}

HOOK = "trace.hook"


def _entries(result):
    """Scalars of a kernel result (Mat, Vec, Subspace or solution row)."""
    rows = getattr(result, "rows", None)
    if rows is None:
        rows = getattr(result, "basis", None)
    if rows is not None:
        return [x for r in rows for x in r]
    entries = getattr(result, "entries", None)
    if entries is not None:
        return entries
    return result if isinstance(result, (list, tuple)) else ()


def _max_bits(result):
    best = 0
    for x in _entries(result):
        if type(x) is Fraction:
            b = max(x.numerator.bit_length(), x.denominator.bit_length())
            if b > best:
                best = b
    return best


class Tracer:
    """Span recorder plus the per-op counters the per-layer metrics need.

    `extra_modules` are non-package module names (the benchmark's own)
    whose bindings of traced functions are patched as well.
    """

    def __init__(self, extra_modules=()):
        self.extra_modules = tuple(extra_modules)
        self.names = []
        self._name_id = {}
        self.span_name = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("l")
        self.span_op = array("l")
        self._stack = []
        self._patches = []
        self.op_id = -1
        self.max_bits = 0
        self.inverse_calls = 0
        self.inverse_repeats = 0
        self.stab_calls = 0
        self.stab_repeats = 0
        self._seen_inverse = set()
        self._seen_stab = set()
        self._op_nid = self._nid("bench.op")
        self._hook_nid = self._nid(HOOK)

    # -- recording -------------------------------------------------------

    def _nid(self, name):
        nid = self._name_id.get(name)
        if nid is None:
            nid = self._name_id[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self, nid):
        idx = len(self.span_start)
        self.span_name.append(nid)
        self.span_parent.append(self._stack[-1] if self._stack else -1)
        self.span_op.append(self.op_id)
        self.span_end.append(0.0)
        self._stack.append(idx)
        self.span_start.append(time.perf_counter())
        return idx

    def _close(self, idx):
        self.span_end[idx] = time.perf_counter()
        self._stack.pop()

    def begin_op(self, op_id):
        """Open the root span of one op and reset the per-op repeat sets."""
        self.op_id = op_id
        self._seen_inverse.clear()
        self._seen_stab.clear()
        return self._open(self._op_nid)

    def end_op(self, idx):
        self._close(idx)
        self.op_id = -1

    def _hook(self, fn, arg):
        """Run counter bookkeeping inside its own span, so that it is
        charged to neither the traced call nor its caller."""
        idx = self._open(self._hook_nid)
        try:
            fn(arg)
        finally:
            self._close(idx)

    def _note_inverse(self, args):
        self.inverse_calls += 1
        m = args[0]
        if m in self._seen_inverse:
            self.inverse_repeats += 1
        else:
            self._seen_inverse.add(m)

    def _note_stab(self, args):
        self.stab_calls += 1
        key = (args[0], args[1])
        if key in self._seen_stab:
            self.stab_repeats += 1
        else:
            self._seen_stab.add(key)

    def _note_bits(self, result):
        b = _max_bits(result)
        if b > self.max_bits:
            self.max_bits = b

    def _wrap(self, name, fn):
        nid = self._nid(name)
        pre = {
            "linalg.inverse": self._note_inverse,
            "series.in_stabilizer": self._note_stab,
        }.get(name)
        scan = name in _BITS_SCANNED
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if pre is not None:
                tracer._hook(pre, args)
            idx = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if scan:
                field = getattr(result, "field", None) or getattr(args[0], "field", None)
                if getattr(field, "p", 0) is None:
                    tracer._hook(tracer._note_bits, result)
            return result

        return traced

    # -- patching --------------------------------------------------------

    def install(self):
        """Wrap every traced name in every namespace that binds it."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        namespaces = [
            mod
            for modname, mod in list(sys.modules.items())
            if mod is not None
            and (
                modname == "flagstab"
                or modname.startswith("flagstab.")
                or modname in self.extra_modules
            )
        ]
        for name, modname, attr in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            wrapper = self._wrap(name, original)
            for mod in namespaces:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, value))
                        setattr(mod, key, wrapper)
        linalg = sys.modules["flagstab.linalg"]
        for name, clsname, attr in METHODS:
            cls = getattr(linalg, clsname)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(name, raw.__func__))
            else:
                wrapped = self._wrap(name, raw)
            self._patches.append((cls, attr, raw))
            setattr(cls, attr, wrapped)

    def uninstall(self):
        for owner, key, value in reversed(self._patches):
            setattr(owner, key, value)
        self._patches = []

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- analysis --------------------------------------------------------

    def self_times(self):
        """Per-span self time: duration minus the direct children's."""
        n = len(self.span_start)
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        child = [0.0] * n
        parent = self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += dur[i]
        return dur, [d - c for d, c in zip(dur, child)]

    def summarize(self):
        """Per-layer metric values, keyed by metric name, plus the total
        self time of all spans (which must not exceed the traced wall time)."""
        dur, selfs = self.self_times()
        names = self.names
        calls = {}
        self_s = {}
        for i, nid in enumerate(self.span_name):
            calls[nid] = calls.get(nid, 0) + 1
            self_s[nid] = self_s.get(nid, 0.0) + selfs[i]

        def by(name):
            nid = self._name_id.get(name)
            return calls.get(nid, 0), self_s.get(nid, 0.0)

        out = {}
        linalg_self = 0.0
        for kern in LINALG_KERNELS:
            c, s = by(f"linalg.{kern}")
            out[f"linalg.{kern}.calls"] = c
            out[f"linalg.{kern}.self_s"] = s
            linalg_self += s
        out["linalg.self_s"] = linalg_self
        out["linalg.max_bits"] = self.max_bits
        out["linalg.inverse.repeat_ratio"] = (
            self.inverse_repeats / self.inverse_calls if self.inverse_calls else 0.0
        )
        for name, _, _ in FUNCTIONS:
            if name.startswith(("witness.", "linalg.")):
                continue
            c, s = by(name)
            out[f"{name}.calls"] = c
            out[f"{name}.self_s"] = s
        out["series.in_stabilizer.repeat_ratio"] = (
            self.stab_repeats / self.stab_calls if self.stab_calls else 0.0
        )

        stage_s = dict.fromkeys(STAGE_NAMES, 0.0)
        totals = {"witness.invariant_core": 0.0, "witness.extend_witness": 0.0}
        cw = self._name_id.get("witness.construct_witness", -2)
        stage_of = {self._name_id[k]: v for k, v in STAGES.items() if k in self._name_id}
        for i, nid in enumerate(self.span_name):
            name = names[nid]
            if name in totals:
                totals[name] += dur[i]
            if nid == cw:
                stage_s["probe"] += dur[i]
            p = self.span_parent[i]
            if p >= 0 and self.span_name[p] == cw:
                stage = stage_of.get(nid)
                if stage is not None:
                    stage_s[stage] += dur[i]
                    stage_s["probe"] -= dur[i]
        for stage in STAGE_NAMES:
            out[f"witness.stage.{stage}_s"] = stage_s[stage]
        for name, total in totals.items():
            out[f"{name}.total_s"] = total
        return out, sum(selfs)

    def write(self, path):
        """Write all spans as gzip'd tab-separated lines:
        name, start, end, parent index, op id (times in seconds)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("name\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self.span_start)):
                fh.write(
                    f"{names[self.span_name[i]]}\t{self.span_start[i]:.9f}\t"
                    f"{self.span_end[i]:.9f}\t{self.span_parent[i]}\t{self.span_op[i]}\n"
                )
