"""In-process span recorder for the csstensor layers.

Every public module-level function of the traced modules is replaced by a
wrapper that records one span per call: name, start, end and parent span.
The wrappers are installed into every ``csstensor`` module namespace that
holds the original function, so calls made through module globals (the
library's own intra-module and cross-module calls) are caught without
editing the library.  ``functools.wraps`` keeps ``__name__`` and friends,
which the program reads (``verify.run_suite`` prints ``fn.__name__``).

Spans live in flat typed arrays while the run lasts and are written out
once, when it ends.  A span's self time is its duration minus the
durations of its direct children; calls are strictly nested on one thread,
so the children never overlap.
"""

from __future__ import annotations

import functools
import inspect
import json
import math
import sys
import time
from array import array
from pathlib import Path

LAYERS = ("gf2", "chain", "css", "tensorops", "families", "cli", "verify")

# Functions whose matrix argument counts toward gf2.elim_cells.
ELIMINATING = ("gf2.rank", "gf2.rref", "gf2.kernel_basis", "gf2.rowspace_contains")


class Tracer:
    """Records spans for the wrapped functions; one instance per traced run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._installed: list[tuple[object, str, object]] = []
        # Raw inputs of the computed counts, filled by cheap call hooks.
        self.elim_cells = 0
        self.exact_searches: list[tuple[object, str, int]] = []
        self.random_trials = 0

    # -- recording ---------------------------------------------------------

    def wrap(self, name: str, fn):
        name_id = len(self.names)
        self.names.append(name)
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter
        hook = _HOOKS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(span_name)
            span_name.append(name_id)
            span_parent.append(stack[-1])
            span_start.append(0.0)
            span_end.append(0.0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                span_start[idx] = start
                span_end[idx] = end
            if hook is not None:
                hook(self, fn, args, kwargs, result)
            return result

        return traced

    def install(self, package) -> None:
        """Wrap the public functions of the traced layers of ``package``."""
        modules = {
            name: mod
            for name, mod in sys.modules.items()
            if name == package.__name__ or name.startswith(package.__name__ + ".")
        }
        wrappers = {}
        for layer in LAYERS:
            mod = modules[f"{package.__name__}.{layer}"]
            for attr, value in vars(mod).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[value] = self.wrap(f"{layer}.{attr}", value)
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._installed.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._installed):
            setattr(mod, attr, value)
        self._installed.clear()

    # -- analysis ----------------------------------------------------------

    def self_times(self) -> tuple[dict[str, float], dict[str, int], dict[str, float], float]:
        """Per-name self seconds, call counts and inclusive seconds, and the
        seconds of the root spans.  Inclusive seconds double count a name
        that calls itself; the traced entry points do not."""
        n = len(self.span_name)
        child = [0.0] * n
        dur = [self.span_end[i] - self.span_start[i] for i in range(n)]
        root_s = 0.0
        for i in range(n):
            p = self.span_parent[i]
            if p >= 0:
                child[p] += dur[i]
            else:
                root_s += dur[i]
        self_s = [0.0] * len(self.names)
        total_s = [0.0] * len(self.names)
        calls = [0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            self_s[nid] += dur[i] - child[i]
            total_s[nid] += dur[i]
            calls[nid] += 1
        return (
            {name: self_s[i] for i, name in enumerate(self.names)},
            {name: calls[i] for i, name in enumerate(self.names)},
            {name: total_s[i] for i, name in enumerate(self.names)},
            root_s,
        )

    def search_nodes(self, rank) -> int:
        """Computed enumeration nodes of the exact distance searches.

        A search whose reported lower bound is L has certified that no
        logical of weight 1..L-1 exists, which takes every combination of
        at most L-1 rows of its K-row reduced kernel basis:
        sum over r = 1..min(L-1, K) of C(K, r).  ``rank`` is the untraced
        GF(2) rank, used to get K = n - rank of the kernel-defining matrix.
        """
        total = 0
        for code, side, lower in self.exact_searches:
            kernel_of = code.h_x if side == "Z" else code.h_z
            k = code.n - rank(kernel_of)
            total += sum(math.comb(k, r) for r in range(1, min(lower - 1, k) + 1))
        return total

    def write(self, path: Path) -> None:
        """Write the recorded spans: a JSON header, then the four arrays."""
        header = {
            "names": self.names,
            "spans": len(self.span_name),
            "arrays": ["name:int32", "parent:int32", "start:float64", "end:float64"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_name, self.span_parent, self.span_start, self.span_end):
                arr.tofile(fh)


# -- call hooks for the computed counts ----------------------------------------


def _hook_elim(tracer: Tracer, fn, args, kwargs, result) -> None:
    m = args[0] if args else next(iter(kwargs.values()))
    tracer.elim_cells += m.rows * m.cols


@functools.cache
def _signature(fn) -> inspect.Signature:
    return inspect.signature(fn)


def _bound(fn, args, kwargs) -> dict:
    return _signature(fn).bind(*args, **kwargs).arguments


def _hook_exact(tracer: Tracer, fn, args, kwargs, result) -> None:
    a = _bound(fn, args, kwargs)
    tracer.exact_searches.append((a["code"], a["side"], result.lower))


def _hook_random(tracer: Tracer, fn, args, kwargs, result) -> None:
    tracer.random_trials += max(1, _bound(fn, args, kwargs)["trials"])


_HOOKS = {name: _hook_elim for name in ELIMINATING}
_HOOKS["css.min_distance_exact"] = _hook_exact
_HOOKS["css.min_distance_random_upper"] = _hook_random
