"""Span tracing of the nabch package from outside, for the traced run.

:func:`install` rebinds the package's public functions, and the arithmetic
and public methods of ``Series`` and ``PrimCombo``, to recorders.  Modules
import names directly (``from .series import substitute``), so every
binding of a wrapped function is replaced: module globals, module-level
dicts such as ``checks.SUITES``, and class attributes.  ``json.dumps`` is
wrapped too, because the CLI's JSON rendering goes through it.

Each span keeps its name, start, end and parent in flat arrays; nothing is
aggregated while the program runs.  :meth:`Recorder.layers` turns the spans
into the per-layer metrics and :meth:`Recorder.write` stores them.

A few per-term helpers are left unwrapped (``SKIP``): they are called once
per monomial or coefficient, their span would cost more than their work,
and their time belongs to the caller (rendering a series, say).
"""

from __future__ import annotations

import json
import types
from array import array
from time import perf_counter

MODULES = ("magma", "series", "hopf", "suops", "magnus", "cuts", "dsw", "trees", "checks", "cli")

SKIP = {
    "magma.leaf",
    "magma.left_normed_power",
    "magma.degree",
    "magma.multidegree",
    "magma.compare",
    "magma.format_monomial",
    "magma.monomial_to_json",
    "magma.monomial_from_json",
    "magma.word_letters",
    "magma.is_left_normed_word",
    "series.format_coeff",
    "series.parse_coeff",
    "suops.expr_degree",
    "suops.expr_to_text",
    "suops.expr_to_latex",
    "cuts.xiyj_shape",
}

METHODS = {
    ("series", "Series"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__truediv__", "__eq__",
        "zero", "one", "generator", "monomial", "homogeneous", "truncate", "map_monomials",
    ),
    ("suops", "PrimCombo"): (
        "__add__", "__sub__", "__neg__", "__mul__", "__rmul__", "__eq__",
        "single", "component", "up_to", "evaluate", "to_text", "to_json", "from_json",
    ),
}

# Spans whose result length is recorded: the cut route's attempts and keeps.
SIZED = ("cuts.enumerate_cuts", "cuts.enumerate_bch_cuts")

_PRIMCOMBO = [
    f"suops.PrimCombo.{m}" for m in METHODS[("suops", "PrimCombo")] if m not in ("to_text", "to_json")
]
_TREES = [
    "trees.woon_level_sum", "trees.pi_level", "trees.fuchs_level_sum",
    "trees.bernoulli_weights", "trees.nj_tree_sum",
]
_RENDER = [
    "series.series_to_json", "series.format_series",
    "suops.PrimCombo.to_json", "suops.PrimCombo.to_text", "json.dumps",
]

# Span groups, by the spans they sum: a group's "calls" counts its spans,
# "self_s" sums span time minus the time covered by child spans, and
# "wall_s" sums span time.
GROUPS = [
    ("magma.node", ["magma.node"]),
    ("series.mul", ["series.Series.__mul__", "series.Series.__rmul__"]),
    ("series.add", ["series.Series.__add__"]),
    ("series.substitute", ["series.substitute"]),
    ("series.exp_l", ["series.exp_l"]),
    ("series.b_tau", ["series.b_tau"]),
    ("hopf.coproduct", ["hopf.coproduct", "hopf.coproduct_monomial"]),
    ("hopf.left_divide", ["hopf.left_divide", "hopf.left_divide_monomial"]),
    ("hopf.right_divide", ["hopf.right_divide", "hopf.right_divide_monomial"]),
    ("suops.p_series", ["suops.p_series"]),
    ("suops.su_bracket", ["suops.su_bracket", "suops.su_bracket_series"]),
    ("suops.phi", ["suops.phi"]),
    ("suops.eval_prim", ["suops.eval_prim"]),
    ("suops.primcombo", _PRIMCOMBO),
    ("magnus.bch_ode", ["magnus.bch_ode"]),
    ("magnus.n_coeff", ["magnus.n_coeff"]),
    ("magnus.bch_monomial", ["magnus.bch_monomial"]),
    ("magnus.tau_apply", ["magnus.tau_apply"]),
    ("magnus.tau_inverse", ["magnus.tau_inverse"]),
    ("cuts.coefficient_via_cuts", ["cuts.coefficient_via_cuts"]),
    ("cuts.enumerate_cuts", ["cuts.enumerate_cuts", "cuts.enumerate_bch_cuts"]),
    ("dsw.gamma", ["dsw.gamma"]),
    ("dsw.identity_check", ["dsw.dsw_identity_check"]),
    ("trees.level_sums", _TREES),
    ("checks.hopf", ["checks.check_hopf"]),
    ("checks.suops", ["checks.check_suops"]),
    ("checks.dsw", ["checks.check_dsw"]),
    ("checks.magnus", ["checks.check_magnus"]),
    ("checks.cuts", ["checks.check_cuts"]),
    ("cli.render", _RENDER),
]

# (metric, group, statistic): the per-layer metrics read from spans.
SPAN_METRICS = [
    ("magma.node.calls", "magma.node", "calls"),
    ("magma.node.self_s", "magma.node", "self_s"),
    ("series.mul.calls", "series.mul", "calls"),
    ("series.mul.self_s", "series.mul", "self_s"),
    ("series.add.calls", "series.add", "calls"),
    ("series.add.self_s", "series.add", "self_s"),
    ("series.substitute.self_s", "series.substitute", "self_s"),
    ("series.exp_l.self_s", "series.exp_l", "self_s"),
    ("series.b_tau.calls", "series.b_tau", "calls"),
    ("series.b_tau.self_s", "series.b_tau", "self_s"),
    ("hopf.coproduct.calls", "hopf.coproduct", "calls"),
    ("hopf.coproduct.self_s", "hopf.coproduct", "self_s"),
    ("hopf.left_divide.calls", "hopf.left_divide", "calls"),
    ("hopf.left_divide.self_s", "hopf.left_divide", "self_s"),
    ("hopf.right_divide.calls", "hopf.right_divide", "calls"),
    ("hopf.right_divide.self_s", "hopf.right_divide", "self_s"),
    ("suops.p_series.calls", "suops.p_series", "calls"),
    ("suops.p_series.self_s", "suops.p_series", "self_s"),
    ("suops.su_bracket.self_s", "suops.su_bracket", "self_s"),
    ("suops.phi.self_s", "suops.phi", "self_s"),
    ("suops.eval_prim.calls", "suops.eval_prim", "calls"),
    ("suops.eval_prim.self_s", "suops.eval_prim", "self_s"),
    ("suops.primcombo.calls", "suops.primcombo", "calls"),
    ("suops.primcombo.self_s", "suops.primcombo", "self_s"),
    ("magnus.bch_ode.self_s", "magnus.bch_ode", "self_s"),
    ("magnus.n_coeff.calls", "magnus.n_coeff", "calls"),
    ("magnus.bch_monomial.self_s", "magnus.bch_monomial", "self_s"),
    ("magnus.tau_apply.self_s", "magnus.tau_apply", "self_s"),
    ("magnus.tau_inverse.self_s", "magnus.tau_inverse", "self_s"),
    ("cuts.coefficient_via_cuts.self_s", "cuts.coefficient_via_cuts", "self_s"),
    ("cuts.enumerate_cuts.self_s", "cuts.enumerate_cuts", "self_s"),
    ("dsw.gamma.calls", "dsw.gamma", "calls"),
    ("dsw.gamma.self_s", "dsw.gamma", "self_s"),
    ("dsw.identity_check.self_s", "dsw.identity_check", "self_s"),
    ("trees.level_sums.self_s", "trees.level_sums", "self_s"),
    ("checks.hopf.wall_s", "checks.hopf", "wall_s"),
    ("checks.suops.wall_s", "checks.suops", "wall_s"),
    ("checks.dsw.wall_s", "checks.dsw", "wall_s"),
    ("checks.magnus.wall_s", "checks.magnus", "wall_s"),
    ("checks.cuts.wall_s", "checks.cuts", "wall_s"),
    ("cli.render.self_s", "cli.render", "self_s"),
]


class Recorder:
    """Spans of one traced operation, as parallel arrays indexed by span."""

    def __init__(self):
        self.names: list[str] = []
        self.name_of = array("i")
        self.parent = array("i")
        self.size = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = [-1]
        self._undo: list = []
        self.gaps: list[tuple[int, float, float]] = []

    def gap(self, t0: float, t1: float) -> None:
        """Note that [t0, t1] was spent outside the program (a calibration
        round from a signal handler).  It counts toward no span's self or
        wall time.  The span on top of the stack may not contain the gap,
        when the signal came while a span was being opened or closed;
        :meth:`aggregate` then charges the gap to the nearest ancestor that
        does."""
        self.gaps.append((self._stack[-1], t0, t1))

    def wrap(self, fn, name: str):
        nid = len(self.names)
        self.names.append(name)
        stack, name_of, parent, size = self._stack, self.name_of, self.parent, self.size
        start, end = self.start, self.end
        sized = name in SIZED

        def traced(*args, **kwargs):
            i = len(name_of)
            name_of.append(nid)
            parent.append(stack[-1])
            size.append(-1)
            end.append(0.0)
            stack.append(i)
            start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                end[i] = perf_counter()
                stack.pop()
            if sized:
                size[i] = len(out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr: str, value) -> None:
        if isinstance(owner, dict):
            self._undo.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._undo.append((owner, attr, owner.__dict__[attr]))
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        """Restore every binding :func:`install` replaced."""
        for owner, attr, value in reversed(self._undo):
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)
        self._undo.clear()

    def aggregate(self) -> dict[str, dict]:
        """Per span name: calls, total time and self time."""
        n = len(self.name_of)
        child = [0.0] * n
        start, end, parent = self.start, self.end, self.parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        paused = [0.0] * n
        for p, t0, t1 in self.gaps:
            while p >= 0 and not (start[p] <= t0 and t1 <= end[p]):
                p = parent[p]
            if p >= 0:
                child[p] += t1 - t0
            while p >= 0:
                paused[p] += t1 - t0
                p = parent[p]
        out = {name: {"calls": 0, "wall_s": 0.0, "self_s": 0.0} for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_of[i]]]
            dur = end[i] - start[i]
            row["calls"] += 1
            row["wall_s"] += dur - paused[i]
            row["self_s"] += dur - child[i]
        return out

    def cut_counts(self) -> tuple[int, int]:
        """(cuts enumerated, BCH-cuts kept), read from the result lengths of
        the enumerate_cuts calls made by enumerate_bch_cuts and of
        enumerate_bch_cuts itself."""
        ids = {name: i for i, name in enumerate(self.names)}
        top, cuts = ids.get("cuts.enumerate_bch_cuts"), ids.get("cuts.enumerate_cuts")
        enumerated = kept = 0
        for i in range(len(self.name_of)):
            nid = self.name_of[i]
            if nid == top:
                kept += self.size[i]
            elif nid == cuts and self.parent[i] >= 0 and self.name_of[self.parent[i]] == top:
                enumerated += self.size[i]
        return enumerated, kept

    def layers(self) -> dict[str, float]:
        """The per-layer metrics of :data:`SPAN_METRICS` plus the cut counts."""
        per_name = self.aggregate()
        groups = {}
        for group, names in GROUPS:
            rows = [per_name[n] for n in names if n in per_name]
            groups[group] = {k: sum(r[k] for r in rows) for k in ("calls", "wall_s", "self_s")}
        out = {metric: groups[group][stat] for metric, group, stat in SPAN_METRICS}
        out["cuts.cuts_enumerated"], out["cuts.bch_cuts_kept"] = self.cut_counts()
        return out

    def write(self, path: str) -> None:
        """Store the spans: one JSON header line, then the arrays' raw bytes."""
        header = {
            "names": self.names,
            "count": len(self.name_of),
            "arrays": [["name", "i"], ["parent", "i"], ["size", "i"], ["start", "d"], ["end", "d"]],
        }
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name_of, self.parent, self.size, self.start, self.end):
                arr.tofile(f)


def read_spans(path: str) -> tuple[dict, dict[str, array]]:
    """Load a file written by :meth:`Recorder.write`."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for field, code in header["arrays"]:
            arr = array(code)
            arr.fromfile(f, header["count"])
            arrays[field] = arr
    return header, arrays


def _public_functions(mod):
    for name, obj in vars(mod).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
            continue
        if isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
            yield name, obj


def install(package) -> Recorder:
    """Wrap the package's functions and methods and rebind every reference
    to them; call :meth:`Recorder.uninstall` to undo."""
    rec = Recorder()
    modules = [getattr(package, m) for m in MODULES]
    replace: dict[int, object] = {}
    for mod in modules:
        short = mod.__name__.rsplit(".", 1)[1]
        for name, fn in _public_functions(mod):
            full = f"{short}.{name}"
            if full not in SKIP:
                replace[id(fn)] = rec.wrap(fn, full)
    for mod in [package, *modules]:
        for name, obj in list(vars(mod).items()):
            if id(obj) in replace:
                rec._set(mod, name, replace[id(obj)])
            elif isinstance(obj, dict) and not name.startswith("_"):
                for key, value in list(obj.items()):
                    if id(value) in replace:
                        rec._set(obj, key, replace[id(value)])
    for (mod_name, cls_name), methods in METHODS.items():
        cls = getattr(getattr(package, mod_name), cls_name)
        for meth in methods:
            raw = cls.__dict__[meth]
            name = f"{mod_name}.{cls_name}.{meth}"
            if isinstance(raw, classmethod):
                rec._set(cls, meth, classmethod(rec.wrap(raw.__func__, name)))
            else:
                rec._set(cls, meth, rec.wrap(raw, name))
    rec._set(json, "dumps", rec.wrap(json.dumps, "json.dumps"))
    return rec
