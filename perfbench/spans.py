"""Spans around ringlab's public functions, installed from outside the package.

`Tracer.install` replaces every binding of each boundary function, in every
ringlab module and in the predicate registry, with a wrapper that records a
span: boundary, span id, parent span id, start, end, self time, and the
digest and order of the ring involved.  Spans stay in memory until the run
ends.  Self time is the span's duration minus the time its child spans cover,
wrapper bookkeeping included, so that

    sum(self times) + bookkeeping + untraced remainder == traced wall time.

The bookkeeping (the wrappers' own time) is the tracing overhead.
"""
from __future__ import annotations

import importlib
import inspect
import json
import pkgutil
import time

BOUNDARIES = {
    "core": ("check_ring_axioms", "FiniteRing", "dumps_ring", "loads_ring",
             "double_commutant_mask", "units_mask", "idempotents_mask", "nilpotents_mask"),
    "constructions": ("direct_product", "corner_ring", "quotient_ring", "matrix_ring",
                      "upper_triangular_ring", "hst_ring", "lst_ring", "ks_ring",
                      "formal_triangular", "trivial_morita", "enumerate_unital_rings",
                      "ring_isomorphic", "construct"),
    "ideals": ("all_right_ideal_masks", "zhou_radical_mask", "jacobson_radical_mask",
               "socle_mask", "delta_sharp_mask", "r3_mask", "r5_mask", "r2_ideal_mask",
               "r4_ideal_mask", "radical_characterizations"),
    "predicates": ("evaluate_predicate",),
    "suite": ("build_corpus", "run_theorem_suite"),
    "cli": ("main",),
}
# Entries of predicates.PREDICATES, traced as predicates.<name>.
REGISTRY = ("reversible", "j-reversible", "delta-reversible", "abelian", "reduced",
            "semisimple", "local", "delta-clean", "delta-quasipolar",
            "delta-linear-armendariz", "idempotents-lift-mod-delta", "corner-containment",
            "quotient-abelian", "quotient-reduced")


class BoundaryError(RuntimeError):
    """A boundary no longer resolves the way the benchmark was written for."""


class Tracer:
    """The spans and counters of one worker process."""

    def __init__(self, ringlab):
        self.ringlab = ringlab
        self.ring_type = ringlab.core.FiniteRing
        self.names: list[str] = []
        self.spans: list[tuple] = []
        self.stack: list[list] = []
        self.next_id = 0
        self.bookkeeping = 0.0
        self.top_covered = 0.0
        self.results: dict = {}  # (boundary, key) -> last result, for hit checks
        self.lattice_ideals = 0
        self.members = 0
        self.distinct_tables = 0

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Wrap every boundary; raise BoundaryError if one does not resolve."""
        modules = {}
        for info in pkgutil.iter_modules(self.ringlab.__path__):
            name = f"{self.ringlab.__name__}.{info.name}"
            modules[name] = importlib.import_module(name)
        for mod_name, funcs in BOUNDARIES.items():
            mod = getattr(self.ringlab, mod_name, None)
            if mod is None:
                raise BoundaryError(f"ringlab.{mod_name} does not exist")
            for fname in funcs:
                target = getattr(mod, fname, None)
                if target is None:
                    raise BoundaryError(f"ringlab.{mod_name}.{fname} does not exist")
                label = f"{mod_name}.{fname}"
                if inspect.isclass(target):
                    target.__init__ = self._wrap(label, target.__init__)
                    continue
                wrapper = self._wrap(label, target)
                _rebind(modules, target, wrapper)
                # A module that binds the name to anything else would go untraced.
                for other_name, other in modules.items():
                    if vars(other).get(fname, wrapper) is not wrapper:
                        raise BoundaryError(f"{other_name}.{fname} is not {label}; "
                                            "calls through it would go untraced")
        registry = self.ringlab.predicates.PREDICATES
        for key in REGISTRY:
            if key not in registry:
                raise BoundaryError(f"predicate {key!r} is not in the registry")
            target = registry[key]
            registry[key] = self._wrap(f"predicates.{key}", target)
            _rebind(modules, target, registry[key])

    # -- spans ----------------------------------------------------------------

    def _wrap(self, label: str, fn):
        bid = len(self.names)
        self.names.append(label)
        observe = _OBSERVERS.get(label)
        if inspect.isgeneratorfunction(fn):
            return self._wrap_generator(bid, fn, observe)
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            tb0 = clock()
            frame = [self.next_id, 0.0]
            self.next_id += 1
            stack.append(frame)
            result = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = clock()
                self._close(bid, frame, t0, t1, 1, args, kwargs, result, observe)
                self._account(tb0, t0, t1)

        return wrapper

    def _wrap_generator(self, bid, fn, observe):
        clock = time.perf_counter
        stack = self.stack

        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            call = 1
            while True:
                tb0 = clock()
                frame = [self.next_id, 0.0]
                self.next_id += 1
                stack.append(frame)
                item, done = None, False
                t0 = clock()
                try:
                    item = next(inner)
                except StopIteration:
                    done = True
                finally:
                    t1 = clock()
                    self._close(bid, frame, t0, t1, call, args, kwargs, item, observe)
                    self._account(tb0, t0, t1)
                call = 0
                if done:
                    return
                yield item

        return wrapper

    def _close(self, bid, frame, t0, t1, call, args, kwargs, result, observe) -> None:
        self.stack.pop()
        parent = self.stack[-1][0] if self.stack else -1
        ring = self._ring_of(args, result)
        digest, order = None, 0
        if ring is not None:
            try:
                digest, order = ring.digest, ring.order
            except AttributeError:  # constructor raised before the tables were set
                pass
        extra = observe(self, args, kwargs, result, digest, order) if observe else None
        self.spans.append((bid, frame[0], parent, t0, t1, (t1 - t0) - frame[1], call,
                           digest, order, extra))

    def _account(self, tb0, t0, t1) -> None:
        tb1 = time.perf_counter()
        self.bookkeeping += (tb1 - tb0) - (t1 - t0)
        if self.stack:
            self.stack[-1][1] += tb1 - tb0
        else:
            self.top_covered += tb1 - tb0

    def _ring_of(self, args, result):
        for value in (*args[:2], result, getattr(result, "ring", None)):
            if isinstance(value, self.ring_type):
                return value
        return None

    # -- results --------------------------------------------------------------

    def per_layer(self) -> dict:
        """Counts and times per boundary, plus the numerators of the workloads' ratios."""
        out: dict = {}
        for label in self.names:
            for key in ("calls", "self_s", "total_s", "max_s"):
                out[f"{label}.{key}"] = 0
        hits: dict = {}
        repeats = n3 = 0
        seen: set = set()
        for bid, _, _, t0, t1, self_s, call, digest, order, extra in self.spans:
            label = self.names[bid]
            out[f"{label}.calls"] += call
            out[f"{label}.self_s"] += self_s
            out[f"{label}.total_s"] += t1 - t0
            out[f"{label}.max_s"] = max(out[f"{label}.max_s"], t1 - t0)
            if extra is not None:
                hits[label] = hits.get(label, 0) + extra
            if label == "core.check_ring_axioms":
                n3 += order ** 3
                repeats += digest in seen
                seen.add(digest)
        out["core.check_ring_axioms.n3_sum"] = n3
        out["core.check_ring_axioms.repeats"] = repeats
        for label in ("ideals.all_right_ideal_masks", "predicates.evaluate_predicate"):
            out[f"{label}.hits"] = hits.get(label, 0)
        out["ideals.lattice.ideals"] = self.lattice_ideals
        out["suite.members"] = self.members
        out["suite.distinct_tables"] = self.distinct_tables
        out["trace.overhead_s"] = self.bookkeeping
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for bid, sid, parent, t0, t1, self_s, call, digest, order, extra in self.spans:
                fh.write(json.dumps([self.names[bid], sid, parent, t0, t1, self_s, call,
                                     digest, order]) + "\n")


def _rebind(modules: dict, target, wrapper) -> None:
    for mod in modules.values():
        for attr, value in list(vars(mod).items()):
            if value is target:
                setattr(mod, attr, wrapper)


def _observe_cached(tracer: Tracer, key, result) -> bool:
    """A hit is a call that returns the very object an earlier call returned."""
    slot = tracer.results.get(key)
    tracer.results[key] = result
    return slot is not None and slot is result


def _observe_lattice(tracer, args, kwargs, result, digest, order):
    if result is None:
        return False
    key = ("lattice", digest)
    if key not in tracer.results:
        tracer.lattice_ideals += len(result)
    return _observe_cached(tracer, key, result)


def _observe_predicate(tracer, args, kwargs, result, digest, order):
    if result is None:
        return False
    name = args[1] if len(args) > 1 else kwargs.get("name")
    return _observe_cached(tracer, ("pred", digest, name), result)


def _observe_corpus(tracer, args, kwargs, result, digest, order):
    if result is not None:
        members = result[1]
        tracer.members += len(members)
        tracer.distinct_tables += len({m.ring.digest for m in members})
    return None


_OBSERVERS = {
    "ideals.all_right_ideal_masks": _observe_lattice,
    "predicates.evaluate_predicate": _observe_predicate,
    "suite.build_corpus": _observe_corpus,
}
