"""Outside-in tracer for the arrlog layers.

Every function defined at module level in a layer module, and every method
written in a class of that module, is replaced by a wrapper that counts its
calls and, unless it is a hot helper listed in COUNT_ONLY, times them.  Every
name in an ``arrlog`` module that is bound to a wrapped function is rebound
to the wrapper, so ``from .derivation import classify`` in ``criteria`` goes
through it too.

A timed call's self time is its duration minus the duration of the timed
calls nested in it, and is charged to its layer.  Untimed code run inside it
(``fractions`` arithmetic, count-only helpers, dataclass machinery) is
therefore charged to the layer of the innermost timed caller.  ``busy_s`` of
a function is the time spent inside its outermost active call.  Times are
read from the clock the tracer is given; the benchmark's stands still while
a speed probe runs inside an op.
"""

from __future__ import annotations

import functools
import sys

LAYERS = ("poly", "linalg", "multiarr", "derivation", "criteria", "arrangement")

# Called often enough that timing them would swamp what they do; they are
# counted, and their time goes to the layer of their timed caller.
COUNT_ONLY = frozenset({
    "poly.poly_mul",
    "poly.HomPoly.__post_init__",
    "poly.HomPoly.coefficient",
    "poly.monomial_index",
    "poly.monomial_count",
    "poly.monomials",
    "poly._index_table",
    "linalg._content",
})


class Stat:
    __slots__ = ("calls", "busy_s", "depth")

    def __init__(self):
        self.calls = 0
        self.busy_s = 0.0
        self.depth = 0


class Tracer:
    """Installs the wrappers and accumulates their counts and times."""

    def __init__(self, clock):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        self.cells = 0
        self.max_cells = 0
        self.max_bits = 0
        self.degree_reached = 0
        self.cap_hits = 0
        self._stack: list[float] = []

    # -- hooks on particular functions --------------------------------------

    def _on_reduce_rows(self, args):
        # the integer rows every rref and rank eliminates
        rows, ncols = args[0], args[1]
        cells = len(rows) * ncols
        self.cells += cells
        self.max_cells = max(self.max_cells, cells)
        self.max_bits = max(self.max_bits, max(
            (abs(x).bit_length() for r in rows for x in r), default=0))

    def _on_degree(self, args):
        self.degree_reached = max(self.degree_reached, args[1])

    def _on_resolution(self, result):
        self.cap_hits += bool(result.shape.cap_hit)

    # -- wrapping ------------------------------------------------------------

    def _wrap(self, fn, key: str, layer: str):
        stat = self.stats.setdefault(key, Stat())
        if key in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                stat.calls += 1
                return fn(*args, **kwargs)
            return counted

        before = {"linalg._reduce_rows": self._on_reduce_rows,
                  "derivation._ar_kernel": self._on_degree,
                  "derivation._ar_quick_dim": self._on_degree}.get(key)
        after = self._on_resolution if key == "derivation._resolution" else None
        stack = self._stack
        self_s = self.self_s
        perf = self.clock

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            stat.calls += 1
            stat.depth += 1
            if before is not None:
                before(args)
            stack.append(0.0)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf() - t0
                self_s[layer] += dt - stack.pop()
                if stack:
                    stack[-1] += dt
                stat.depth -= 1
                if not stat.depth:
                    stat.busy_s += dt
            if after is not None:
                after(result)
            return result
        return timed

    def install(self, package: str = "arrlog"):
        """Wrap every layer function and rebind every name bound to one."""
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            mod = sys.modules[f"{package}.{layer}"]
            for name, val in list(vars(mod).items()):
                if isinstance(val, type) and val.__module__ == mod.__name__:
                    self._wrap_methods(val, layer)
                elif (callable(val) and not isinstance(val, type)
                      and getattr(val, "__module__", None) == mod.__name__):
                    replaced[id(val)] = self._wrap(val, f"{layer}.{name}", layer)
        for name, mod in list(sys.modules.items()):
            if name != package and not name.startswith(package + "."):
                continue
            for attr, val in list(vars(mod).items()):
                if id(val) in replaced:
                    setattr(mod, attr, replaced[id(val)])

    def _wrap_methods(self, cls, layer: str):
        source = sys.modules[cls.__module__].__file__
        for name, val in list(vars(cls).items()):
            kind = None
            if isinstance(val, classmethod):
                kind, val = classmethod, val.__func__
            elif isinstance(val, staticmethod):
                kind, val = staticmethod, val.__func__
            code = getattr(val, "__code__", None)
            if code is None or code.co_filename != source:
                continue  # properties and dataclass-generated methods
            wrapped = self._wrap(val, f"{layer}.{cls.__name__}.{name}", layer)
            setattr(cls, name, kind(wrapped) if kind else wrapped)

    # -- reading -------------------------------------------------------------

    def stat(self, key: str) -> Stat:
        return self.stats.get(key) or Stat()
