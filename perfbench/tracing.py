"""Spans around hcmkit's public functions, recorded from outside the package.

`Recorder.install()` wraps every public function of the traced modules and
`oracle.minimize` (scipy's L-BFGS entry point, as the oracle looks it up). Each
wrapper is installed in every hcmkit module whose globals hold the function,
because a module that imported a name (`postbuckle.critical_load`) calls its
own reference, not the attribute of the defining module. `restore()` puts
every original back. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from dataclasses import dataclass, field

LAYERS = ("core", "config", "buckling", "postbuckle", "snapdyn", "swim", "oracle",
          "svgplot", "cli")

# Stage stall rule of oracle._Solver.solve: an unsuccessful L-BFGS-B stage is
# accepted when max|jac| is below this.
STALL_JAC = 1e-3


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int | None = None
    op: int | None = None
    failed: bool = False
    stats: dict = field(default_factory=dict)
    children_s: float = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.duration - self.children_s


def _lbfgs_stats(result, _bound):
    jac = getattr(result, "jac", None)
    max_jac = float(max(abs(float(x)) for x in jac)) if jac is not None and len(jac) else 0.0
    return {"nit": int(result.nit), "nfev": int(result.nfev),
            "success": bool(result.success), "max_jac": max_jac}


def _rk4_stats(_result, bound):
    return {"rk4_steps": int(round(bound.arguments["T"] / bound.arguments["dt"]))}


def _eigh_stats(_result, bound):
    n = bound.arguments.get("n_grid", 257)
    return {"n_grid": n, "eigh_bytes": 2 * (n - 2) ** 2 * 8}


def _cruise_stats(result, _bound):
    return {"rk4_steps": len(result.v_trace) - 1}


# name -> (needs bound arguments, stats function). Solver results and the
# state handed to nodes_to_csv are kept to tell which solves reach the output.
STATS = {
    "oracle.lbfgs": (False, _lbfgs_stats),
    "snapdyn.simulate_snap": (True, _rk4_stats),
    "buckling.critical_load": (True, _eigh_stats),
    "swim.cruise_speed": (False, _cruise_stats),
    "oracle.find_equilibrium": (False, lambda r, _b: {"result": r}),
    "oracle.find_saddle": (False, lambda r, _b: {"result": r}),
    "oracle.nodes_to_csv": (True, lambda _r, b: {"state": b.arguments["state"]}),
}

# Spans whose time stays in their parent's self time: scipy's L-BFGS-B
# spends it in oracle's own energy and gradient callbacks.
TRANSPARENT = {"oracle.lbfgs"}


class Recorder:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op: int | None = None
        self._patched: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, time.perf_counter(), parent=parent, op=self.op))
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx: int, failed: bool = False) -> Span:
        span = self.spans[idx]
        span.end = time.perf_counter()
        span.failed = failed
        self._stack.pop()
        if span.parent is not None and span.name not in TRANSPARENT:
            self.spans[span.parent].children_s += span.duration
        return span

    def wrap(self, name: str, fn):
        needs_args, stats_fn = STATS.get(name, (False, None))
        sig = inspect.signature(fn) if needs_args else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = self.open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.close(idx, failed=True)
                raise
            span = self.close(idx)
            if stats_fn is not None:
                bound = sig.bind(*args, **kwargs) if sig is not None else None
                if bound is not None:
                    bound.apply_defaults()
                span.stats = stats_fn(result, bound)
            return result

        return wrapper

    # -- installation ----------------------------------------------------
    def install(self) -> None:
        """Wrap the public functions of every traced layer where they are looked up."""
        import hcmkit  # noqa: F401  (the package must be importable first)

        targets = {}
        for layer in LAYERS:
            mod = sys.modules[f"hcmkit.{layer}"]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    if (layer, name) != ("cli", "main"):  # the caller names cli spans
                        targets[obj] = f"{layer}.{name}"
        oracle_mod = sys.modules["hcmkit.oracle"]
        targets[oracle_mod.minimize] = "oracle.lbfgs"

        wrappers = {fn: self.wrap(name, fn) for fn, name in targets.items()}
        homes = [m for n, m in sorted(sys.modules.items())
                 if m is not None and (n == "hcmkit" or n.startswith("hcmkit."))]
        for mod in homes:
            for gname, value in list(vars(mod).items()):
                try:
                    hit = value in wrappers
                except TypeError:  # unhashable global
                    continue
                if hit:
                    self._patched.append((mod, gname, value))
                    setattr(mod, gname, wrappers[value])

    def restore(self) -> None:
        for mod, gname, value in reversed(self._patched):
            setattr(mod, gname, value)
        self._patched.clear()

    def patched_names(self) -> list[str]:
        return [f"{m.__name__}.{g}" for m, g, _ in self._patched]


def span_cost_us(calls: int = 20000) -> float:
    """Added cost of one recorded span, from a wrapped no-op, in microseconds."""

    def noop():
        return None

    rec = Recorder()
    wrapped = rec.wrap("calibration.noop", noop)
    t0 = time.perf_counter()
    for _ in range(calls):
        noop()
    bare = time.perf_counter() - t0
    t0 = time.perf_counter()
    for _ in range(calls):
        wrapped()
    traced = time.perf_counter() - t0
    return max(0.0, (traced - bare) / calls * 1e6)
