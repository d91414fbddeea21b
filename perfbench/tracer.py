"""In-memory span tracer that wraps centralspin's public functions from outside.

``Tracer.install`` replaces every public function of the library layers,
at every module attribute that binds it (the package re-exports, the
defining module, and names bound by ``from ... import`` such as
``ramsey.delone_tail_sum``), by one wrapper that records a span, plus
``spectra.CosProduct.evaluate``.  ``Tracer.restore`` puts the originals
back.  Nothing under ``src/`` is edited.

A span's self time is its duration minus the durations of its direct
children.  Wrapped calls nest on the calling thread only (no public
function is called from ``ramsey``'s worker threads), so the children of
one span never overlap and their durations add.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

# The library layers, in the package's own order; ``cli`` is traced by the
# caller, which opens one span per subcommand around ``cli.run``.
LIB_LAYERS = ("pointsets", "bounds", "ramsey", "spectra", "basis")
LAYERS = LIB_LAYERS + ("cli",)


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1  # index of the parent span, -1 at top level
    child_s: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.dur - self.child_s


class Tracer:
    """Collects spans; ``counters`` maps a span name to a function
    ``(bound_arguments, result) -> {count_name: number}`` evaluated after
    the span has closed."""

    def __init__(self, counters=None, clock=time.perf_counter):
        self.spans: list[Span] = []
        self.counters = dict(counters or {})
        self.clock = clock
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str):
        sp = Span(name, self.clock(), parent=self._stack[-1] if self._stack else -1)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        try:
            yield sp
        finally:
            sp.end = self.clock()
            self._stack.pop()
            if sp.parent >= 0:
                self.spans[sp.parent].child_s += sp.dur

    def wrap(self, name: str, fn):
        counter = self.counters.get(name)
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name) as sp:
                result = fn(*args, **kwargs)
            if counter is not None:
                sp.counts = counter(sig.bind(*args, **kwargs).arguments, result)
            return result

        return wrapper

    def install(self, package) -> list[tuple[object, str, object]]:
        """Wrap the public functions of ``package``; return what to restore."""
        modules = [importlib.import_module(f"{package.__name__}.{m}")
                   for m in LIB_LAYERS]
        names = {}
        for layer, mod in zip(LIB_LAYERS, modules):
            for attr in getattr(mod, "__all__", ()):
                obj = getattr(mod, attr)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    names[obj] = f"{layer}.{attr}"
        wrappers = {fn: self.wrap(name, fn) for fn, name in names.items()}
        installed = []
        for mod in [package] + modules:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    installed.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        cos_product = modules[LIB_LAYERS.index("spectra")].CosProduct
        original = cos_product.evaluate
        installed.append((cos_product, "evaluate", original))
        cos_product.evaluate = self.wrap("spectra.CosProduct.evaluate", original)
        return installed

    @staticmethod
    def restore(installed) -> None:
        for owner, attr, original in reversed(installed):
            setattr(owner, attr, original)


def summarize(spans: list[Span]) -> dict[str, dict[str, float]]:
    """Per span name: total self time ``s``, inclusive time ``incl``,
    ``calls``, and the sum of every count its counter recorded."""
    out: dict[str, dict[str, float]] = {}
    for sp in spans:
        row = out.setdefault(sp.name, {"s": 0.0, "incl": 0.0, "calls": 0})
        row["s"] += sp.self_s
        row["incl"] += sp.dur
        row["calls"] += 1
        for k, v in sp.counts.items():
            row[k] = row.get(k, 0) + v
    return out


def inclusive_within(spans: list[Span], outer: str, inner: str) -> float:
    """Inclusive time of ``inner`` spans that run inside an ``outer`` span."""
    total = 0.0
    for sp in spans:
        if sp.name != inner:
            continue
        p = sp.parent
        while p >= 0 and spans[p].name != outer:
            p = spans[p].parent
        if p >= 0:
            total += sp.dur
    return total


# ---------------------------------------------------------------------------
# Counts recorded at the layer boundaries, and the per-layer metrics


def _sites_from(ps, r) -> int:
    return int((ps.radii >= r).sum())


COUNTERS = {
    "ramsey.evaluate_profile": lambda a, res: {
        "rows": res.times.size,
        "factors": _sites_from(a["ps"], a["r"]) * res.times.size,
        "vacuous_rows": int((res.err >= 2.0).sum())},
    "bounds.delone_tail_sum": lambda a, res: {"terms": _sites_from(a["ps"], a["r"])},
    "pointsets.gen_lattice": lambda a, res: {"sites": res.n_points},
    "pointsets.gen_jittered": lambda a, res: {"sites": res.n_points},
    "pointsets.gen_poisson_disk": lambda a, res: {"sites": res.n_points},
    "pointsets.measure_radii": lambda a, res: {"sites": a["ps"].n_points},
}

CLI_SUBCOMMANDS = ("points", "bounds", "ramsey", "spectra", "basis", "verify")
_SELF_TIMES = ("ramsey.compact_bound_check", "pointsets.gen_lattice",
               "pointsets.gen_jittered", "pointsets.check_annulus_bounds",
               "bounds.sandwich_check", "spectra.d_map_exact",
               "spectra.cantor_function", "spectra.char_function_check",
               "basis.inner_product", "basis.fourier_coeff", "basis.l2_distance_to_x")


def _per(total: float, count: float, scale: float) -> float:
    return total * scale / count if count else 0.0


def layer_metrics(spans: list[Span], wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced iteration that took ``wall`` seconds.

    ``<layer>.s`` is the layer's total self time; with ``cli.startup_s``
    (time from spawning a CLI process until its imports are done) and
    ``trace.unattributed_s`` (the rest) they add up to ``trace.wall_s``.
    """
    s = summarize(spans)

    def get(name, key="s"):
        return s.get(name, {}).get(key, 0)

    ep, dt = "ramsey.evaluate_profile", "bounds.delone_tail_sum"
    gp, mr = "pointsets.gen_poisson_disk", "pointsets.measure_radii"
    m = {
        ep + ".s": get(ep), ep + ".calls": get(ep, "calls"),
        "ramsey.factors": get(ep, "factors"),
        ep + ".ns_per_factor": _per(get(ep), get(ep, "factors"), 1e9),
        "ramsey.vacuous_rows": get(ep, "vacuous_rows"), "ramsey.rows": get(ep, "rows"),
        gp + ".s": get(gp), gp + ".us_per_site": _per(get(gp), get(gp, "sites"), 1e6),
        "pointsets.sites": sum(get(g, "sites") for g in (
            "pointsets.gen_lattice", "pointsets.gen_jittered", gp)),
        mr + ".s": get(mr), mr + ".calls": get(mr, "calls"),
        mr + ".us_per_site": _per(get(mr), get(mr, "sites"), 1e6),
        "cli.ramsey.radii_share": _per(inclusive_within(spans, "cli.ramsey", mr),
                                       get("cli.ramsey", "incl"), 1.0),
        dt + ".s": get(dt), dt + ".calls": get(dt, "calls"),
        dt + ".ns_per_term": _per(get(dt), get(dt, "terms"), 1e9),
        "bounds.terms": get(dt, "terms"),
        "cli.startup_s": get("startup"),
        "cli.bytes_out": sum(get(f"cli.{c}", "bytes_out") for c in CLI_SUBCOMMANDS),
        "spectra.CosProduct.evaluate.s": get("spectra.CosProduct.evaluate"),
        "spectra.CosProduct.evaluate.calls": get("spectra.CosProduct.evaluate", "calls"),
    }
    for name in _SELF_TIMES:
        m[name + ".s"] = get(name)
    for c in CLI_SUBCOMMANDS:
        m[f"cli.{c}.s"] = get(f"cli.{c}")
    for layer in LAYERS:
        m[layer + ".s"] = sum(row["s"] for name, row in s.items()
                              if name.startswith(layer + "."))
    m["trace.wall_s"] = wall
    m["trace.unattributed_s"] = wall - sum(row["s"] for row in s.values())
    return m
