"""Span tracer for the benchmark's traced run.

The tracer replaces attributes of the bswkb modules with wrappers that time
each call.  Calls at layer boundaries (``find_orbit``, ``BSSolver.S``,
``oracle_spectrum``, ...) become spans: name, start, end and parent span,
held in memory and written out when the run ends.  Calls made hundreds of
thousands of times per run (scalar symbol evaluations, ``flow.advance``)
are only aggregated per name, so that tracing keeps its memory flat; their
time still counts as child time of the span that made them.

A span's self time is its duration minus the time its children cover.
Children are strictly nested in one thread, so that is the sum of their
durations.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter


class Tracer:
    def __init__(self):
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._saved: list[tuple] = []
        self.reset()

    def reset(self):
        """Forget everything recorded; called at the start of each round."""
        self.spans: list[list] = []      # [name, start, end, parent index]
        self.stats: dict[str, list] = {}  # name -> [calls, total s, self s]
        self.counts.clear()              # cleared in place: wrappers hold it
        self.matrix_mb = 0.0             # largest oracle matrix assembled
        self._stack: list[list] = []     # [span index, child time]
        self._in_leaf = False

    def _close(self, name: str, dur: float, child: float):
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = [0, 0.0, 0.0]
        st[0] += 1
        st[1] += dur
        st[2] += dur - child
        if self._stack:
            self._stack[-1][1] += dur

    def span(self, name: str, fn):
        """Wrap fn so that each call records a span."""
        def wrapper(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, self._stack[-1][0] if self._stack else -1]
            frame = [len(self.spans), 0.0]
            self.spans.append(rec)
            self._stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                self._stack.pop()
                self._close(name, rec[2] - rec[1], frame[1])
        return wrapper

    def leaf(self, name: str, fn):
        """Wrap a hot call: aggregated only; wrapped calls inside it pass through."""
        def wrapper(*args, **kwargs):
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                self._in_leaf = False
                self._close(name, dur, 0.0)
        return wrapper

    # -- installing wrappers ---------------------------------------------------

    def patch(self, owner, attr: str, make):
        """Replace owner.attr by make(original).

        A bswkb function is replaced in every bswkb module that bound it
        under that name; a foreign one (scipy's ``brentq``) only in `owner`,
        since other modules use it for other layers.  A missing attribute is
        recorded in ``self.missing`` and its metrics read 0.
        """
        orig = getattr(owner, attr, None)
        if orig is None:
            self.missing.append(f"{getattr(owner, '__name__', owner)}.{attr}")
            return
        holders = [owner]
        if not isinstance(owner, type) and getattr(orig, "__module__", "").startswith("bswkb"):
            holders = [m for name, m in list(sys.modules.items())
                       if (name == "bswkb" or name.startswith("bswkb."))
                       and getattr(m, attr, None) is orig]
        new = make(orig)
        for holder in holders:
            self._saved.append((holder, attr, orig))
            setattr(holder, attr, new)

    def uninstall(self):
        for owner, attr, orig in reversed(self._saved):
            setattr(owner, attr, orig)
        self._saved.clear()

    def install(self):
        """Wrap the public entry points of every bswkb layer."""
        # by module path: the package attribute `bswkb.quantize` is a function
        actions, cli, flow, oracle, orbits, quantize, symbols = (
            importlib.import_module(f"bswkb.{name}") for name in
            ("actions", "cli", "flow", "oracle", "orbits", "quantize", "symbols"))

        span, leaf, counts = self.span, self.leaf, self.counts
        model_cls = symbols.SymbolModel
        self.patch(model_cls, "eval", lambda f: leaf("symbols.eval", f))
        self.patch(model_cls, "eval_partial", lambda f: leaf("symbols.eval", f))
        self.patch(model_cls, "eval_partial_array",
                   lambda f: leaf("symbols.eval_array", f))

        self.rhs_counted = not getattr(flow, "NUMBA_ENABLED", False) and hasattr(flow, "_rhs")

        def counted_rhs(f):
            def rhs(*args):
                counts["flow.rhs_evals"] += 1
                return f(*args)
            return rhs

        if self.rhs_counted:
            self.patch(flow, "_rhs", counted_rhs)
        self.patch(flow, "find_period", lambda f: span("flow.find_period", f))
        self.patch(flow, "sample_loop", lambda f: span("flow.sample_loop", f))
        self.patch(flow, "advance", lambda f: leaf("flow.advance", f))

        self.patch(orbits, "find_orbit", lambda f: span("orbits.find_orbit", f))

        self.patch(actions, "action_series", lambda f: span("actions.action_series", f))
        self.patch(actions, "loop_integral_dt", lambda f: span("actions.loop_integral", f))

        def S(f):
            def S(solver, E, *args, **kwargs):
                cache = getattr(solver, "_S_cache", None)
                counts["quantize.S_evals"] += cache is None or E not in cache
                return f(solver, E, *args, **kwargs)
            return span("quantize.S", S)

        def brentq(f):
            def brentq(func, a, b, **kwargs):
                root, info = f(func, a, b, full_output=True, **kwargs)
                counts["quantize.root_iters"] += info.iterations
                return root
            return span("quantize.brentq", brentq)

        self.patch(quantize.BSSolver, "quantize", lambda f: span("quantize.quantize", f))
        self.patch(quantize.BSSolver, "S", S)
        self.patch(quantize, "brentq", brentq)
        self.patch(quantize, "well_minimum", lambda f: span("quantize.well_minimum", f))

        def discretize(f):
            def discretize(*args, **kwargs):
                A = f(*args, **kwargs)
                self.matrix_mb = max(self.matrix_mb, A.nbytes / 2 ** 20)
                return A
            return span("oracle.discretize", discretize)

        def eig_banded(f):
            vals, vecs = span("oracle.eigvals", f), span("oracle.eigvecs", f)

            def eig_banded(*args, eigvals_only=False, **kwargs):
                return (vals if eigvals_only else vecs)(
                    *args, eigvals_only=eigvals_only, **kwargs)
            return eig_banded

        def oracle_spectrum(f):
            def oracle_spectrum(*args, **kwargs):
                res = f(*args, **kwargs)
                counts["oracle.grid_n"] += res.grid_size
                return res
            return span("oracle.oracle_spectrum", oracle_spectrum)

        self.patch(oracle, "oracle_spectrum", oracle_spectrum)
        self.patch(oracle, "classical_energy_top",
                   lambda f: span("oracle.classical_energy_top", f))
        self.patch(oracle, "discretize", discretize)
        self.patch(oracle, "eig_banded", eig_banded)

        self.patch(cli, "main", lambda f: span("cli.main", f))
        for name in self.missing:
            print(f"perfbench: no {name} to trace; its metrics read 0", file=sys.stderr)

    # -- per-layer metrics -------------------------------------------------------

    def children_of(self, parent: str, child: str) -> int:
        """Number of `child` spans whose parent span is a `parent` span."""
        return sum(1 for s in self.spans
                   if s[0] == child and s[3] >= 0 and self.spans[s[3]][0] == parent)

    def layer_metrics(self) -> dict[str, tuple]:
        """Per-layer metrics of the round recorded since the last reset."""
        def calls(name):
            return self.stats.get(name, (0, 0.0, 0.0))[0]

        def total(name):
            return self.stats.get(name, (0, 0.0, 0.0))[1]

        def own(name):
            return self.stats.get(name, (0, 0.0, 0.0))[2]

        S_evals = self.counts["quantize.S_evals"]
        levels = calls("quantize.quantize")
        orbits = calls("orbits.find_orbit")
        return {
            "symbols.eval_calls": (calls("symbols.eval"), "count"),
            "symbols.eval_s": (total("symbols.eval"), "s"),
            "symbols.eval_array_calls": (calls("symbols.eval_array"), "count"),
            "symbols.eval_array_s": (total("symbols.eval_array"), "s"),
            "flow.rhs_evals": (self.counts["flow.rhs_evals"] if self.rhs_counted else None,
                               "count"),
            "flow.find_period_calls": (calls("flow.find_period"), "count"),
            "flow.find_period_s": (total("flow.find_period"), "s"),
            "flow.sample_loop_calls": (calls("flow.sample_loop"), "count"),
            "flow.sample_loop_s": (total("flow.sample_loop"), "s"),
            "flow.advance_calls": (calls("flow.advance"), "count"),
            "flow.advance_s": (total("flow.advance"), "s"),
            "orbits.find_orbit_calls": (orbits, "count"),
            "orbits.find_orbit_s": (total("orbits.find_orbit"), "s"),
            "orbits.find_orbit_self_s": (own("orbits.find_orbit"), "s"),
            "orbits.orbits_per_S": (orbits / S_evals if S_evals else 0.0, "ratio"),
            "actions.action_series_calls": (calls("actions.action_series"), "count"),
            "actions.action_series_self_s": (own("actions.action_series"), "s"),
            "actions.loop_integral_calls": (calls("actions.loop_integral"), "count"),
            "quantize.levels": (levels, "count"),
            "quantize.S_calls": (calls("quantize.S"), "count"),
            "quantize.S_evals": (S_evals, "count"),
            "quantize.S_evals_per_level": (S_evals / levels if levels else 0.0, "ratio"),
            "quantize.root_iters": (self.counts["quantize.root_iters"], "count"),
            "quantize.root_s": (total("quantize.brentq"), "s"),
            "quantize.well_minimum_s": (total("quantize.well_minimum"), "s"),
            "oracle.energy_top_s": (total("oracle.classical_energy_top"), "s"),
            "oracle.energy_top_orbits": (
                self.children_of("oracle.classical_energy_top", "orbits.find_orbit"), "count"),
            "oracle.assemble_calls": (calls("oracle.discretize"), "count"),
            "oracle.assemble_s": (total("oracle.discretize"), "s"),
            "oracle.matrix_mb": (self.matrix_mb, "MB"),
            "oracle.eigvals_s": (total("oracle.eigvals"), "s"),
            "oracle.eigvecs_s": (total("oracle.eigvecs"), "s"),
            "oracle.grid_n": (self.counts["oracle.grid_n"], "count"),
            "oracle.self_s": (own("oracle.oracle_spectrum"), "s"),
            "cli.self_s": (own("cli.main"), "s"),
        }

    def dump(self) -> dict:
        """Spans and aggregates of the current round, for the trace file."""
        return {"spans": self.spans,
                "stats": {k: {"calls": v[0], "total_s": v[1], "self_s": v[2]}
                          for k, v in sorted(self.stats.items())},
                "counts": dict(self.counts), "matrix_mb": self.matrix_mb}
