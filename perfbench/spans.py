"""Spans around the public functions of affext, recorded from outside it.

The library has no timing code of its own yet, so the traced run replaces
each public function by a wrapper in every affext module namespace that
binds it (callers use ``from .x import f``, and a module calls its own
functions through its globals).  A span is ``[name, start, end, parent]``;
spans stay in memory until the run writes them out.  A function's self time
is its spans' durations minus the durations of their child spans.
"""

import functools
import inspect
import sys
import time
from collections import defaultdict
from math import prod

MODULES = ("terms", "algebras", "congruences", "commutator", "datum",
           "cocycles", "cohomology", "groups", "serialization", "cli", "verify")

# Per-element and per-cocycle helpers, called 10^4 to 10^7 times per pass
# (classical_h2 alone makes ~16M mul_of calls).  A span per call would time
# the wrapper, and would move the work of the H2 coset quotient (cocycle_add)
# or of the Z2 gate (weak_sum, eval_term) out of the function the layer
# metrics name.  Their time counts as their caller's self time.
UNWRAPPED = {"groups.mul_of", "groups.inv_of", "groups.identity_of",
             "groups.classical_cocycle_identity", "terms.is_var",
             "terms.eval_term", "algebras.is_homomorphism",
             "datum.weak_sum", "cocycles.cocycle_add", "cocycles.cocycle_neg",
             "cocycles.cocycle_sub"}


def _cocycle_space(args):
    d = args[0]
    return prod(len(d.fiber(d.cell_fiber(*cell))) for cell in d.cells())


# Counts read from a call's arguments and return value: name -> stat -> f.
COUNTERS = {
    "congruences.m_matrices": {"quads": lambda a, r: len(r)},
    "congruences.pair_algebra": {"elements": lambda a, r: r.size},
    "congruences.delta": {"classes": lambda a, r: r.block_count()},
    "cohomology.cocycle_group": {"solutions": lambda a, r: r.order,
                                 "space": lambda a, r: _cocycle_space(a)},
    "cohomology.coboundary_group": {
        "maps": lambda a, r: sum(len(hs) for hs in r.witnesses.values()),
        "images": lambda a, r: r.order},
    "algebras.find_isomorphism": {"found": lambda a, r: r is not None},
}


class Tracer:
    """Installs wrappers, collects spans and counts, and restores the
    original functions on ``uninstall``."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self.returns = defaultdict(list)
        self._stack = []
        self._restore = []

    def install(self, keep_returns=()):
        """Wrap every public function defined in an affext module.

        Return values of the functions named in keep_returns are kept in
        ``self.returns``.
        """
        modules = {name: sys.modules["affext." + name] for name in MODULES}
        wrappers = {}
        for modname, mod in modules.items():
            for attr, fn in vars(mod).items():
                name = "%s.%s" % (modname, attr)
                if (inspect.isfunction(fn) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__ and name not in UNWRAPPED):
                    wrappers[fn] = self._wrap(name, fn, name in keep_returns)
        for mod in list(modules.values()) + [sys.modules["affext"]]:
            for attr, fn in list(vars(mod).items()):
                if inspect.isfunction(fn) and fn in wrappers:
                    self._restore.append((mod, attr, fn))
                    setattr(mod, attr, wrappers[fn])

    def uninstall(self):
        for mod, attr, fn in self._restore:
            setattr(mod, attr, fn)
        self._restore = []

    def _wrap(self, name, fn, keep):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counters = COUNTERS.get(name, {})
        counts, returns = self.counts, self.returns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            span = [name, clock(), 0.0, parent]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            counts[name + ".calls"] += 1
            if counters:
                # counting is the tracer's own work: a sibling span keeps it
                # out of the parent's self time
                start = clock()
                for stat, f in counters.items():
                    counts["%s.%s" % (name, stat)] += f(args, result)
                spans.append(["trace.counters", start, clock(), parent])
            if keep:
                returns[name].append(result)
            return result

        return traced

    def self_times(self):
        """name -> summed self time, and the summed time of top-level spans."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own = defaultdict(float)
        top = 0.0
        for i, (name, start, end, parent) in enumerate(self.spans):
            own[name] += end - start - child[i]
            if parent < 0:
                top += end - start
        return own, top
