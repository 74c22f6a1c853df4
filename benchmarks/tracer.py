"""Per-layer tracing installed from outside the library.

The tracer wraps the calls into each pgr module without editing it:

- instance attributes of each ring (``mul``, ``add``) and group (``mul``),
  set before the context is built, so a context that caches bound methods
  still calls the wrappers;
- the public methods of each GroupRing instance;
- the module attributes ``pgr.groupring.iterate_op``,
  ``pgr.verify.iterate_op``, ``pgr.arity.admissible_length``, the
  ``pgr.verify.check_*`` functions, ``pgr.cli.run_command``, the parse
  functions ``pgr.cli`` imports from ``pgr.dsl``, and
  ``pgr.dsl.load_config``.

An attribute that no longer exists is skipped, so a layer that is gone
reports zero calls.  Hot inner calls (ring and group products, ring sums,
``iterate_op``) are aggregated into call counts and busy and self time;
``admissible_length`` runs inside ``iterate_op`` and is only counted, its
time staying in its caller's self time.  Every other wrapped call also
records a span with its op id and parent span (the first MAX_SPANS of
them).  Self time is busy time minus the busy time of wrapped calls made
inside it; it includes the worker's speed probe when that fires inside
the call, under 1% of the time.  Everything is held in memory and written
out once, at the end.
"""

from __future__ import annotations

import gzip
import json
from collections import defaultdict
from pathlib import Path
from time import perf_counter

MAX_SPANS = 50_000  # spans kept for the trace file; counts are never capped


class Tracer:
    def __init__(self):
        self.on = False
        self.stats: dict = defaultdict(lambda: [0, 0.0, 0.0])  # calls, busy, self
        self.counts: dict = defaultdict(int)
        self.depth: dict = defaultdict(int)
        self.child = [0.0]  # busy time of wrapped calls, one slot per frame
        self.parents = [None]
        self.spans: list = []
        self.dropped = 0
        self.next_id = 0
        self.op_id = None

    # wrappers ------------------------------------------------------------

    def hot(self, name, fn):
        stat, child = self.stats[name], self.child

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            child.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                inner = child.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                child[-1] += dt

        return wrapper

    def count(self, name, fn):
        """Calls only: for a call too small and too frequent to time."""
        stat = self.stats[name]

        def wrapper(*args, **kwargs):
            if self.on:
                stat[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def span(self, name, fn, observe=None):
        stat, child, parents, depth = (
            self.stats[name], self.child, self.parents, self.depth
        )

        def wrapper(*args, **kwargs):
            if not self.on:
                return fn(*args, **kwargs)
            sid = self.next_id
            self.next_id += 1
            parent = parents[-1]
            parents.append(sid)
            child.append(0.0)
            depth[name] += 1
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                depth[name] -= 1
                dt = t1 - t0
                inner = child.pop()
                parents.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - inner
                child[-1] += dt
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((sid, parent, self.op_id, name, t0, t1))
                else:
                    self.dropped += 1
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def begin_op(self, op_id: int) -> None:
        self.op_id = op_id
        self._op_span = self.next_id
        self.next_id += 1
        self.child.append(0.0)
        self.parents.append(self._op_span)
        self.on = True
        self._t0 = perf_counter()

    def end_op(self) -> None:
        dt = perf_counter() - self._t0
        self.on = False
        inner = self.child.pop()
        self.parents.pop()
        stat = self.stats["op"]
        stat[0] += 1
        stat[1] += dt
        stat[2] += dt - inner
        if len(self.spans) < MAX_SPANS:
            self.spans.append(
                (self._op_span, None, self.op_id, "op", self._t0, self._t0 + dt)
            )

    # counts taken from the inputs and outputs of wrapped calls ----------

    def _observe_mul(self, args, result) -> None:
        combos = 1
        for x in args[0]:
            combos *= len(x.terms)
        self.counts["groupring.mul.combos"] += combos
        self.counts["groupring.mul.out_terms"] += len(result.terms)
        if self.depth["groupring.quer"]:
            self.counts["groupring.quer.mul_calls"] += 1

    def _observe_quer(self, args, result) -> None:
        self.counts["groupring.quer.found"] += result is not None

    # installation --------------------------------------------------------

    def wrap_ring(self, ring) -> None:
        if getattr(ring, "_bench_traced", False):
            return
        ring._bench_traced = True
        ring.mul = self.hot("rings.mul", ring.mul)
        ring.add = self.hot("rings.add", ring.add)

    def wrap_group(self, group) -> None:
        if getattr(group, "_bench_traced", False):
            return
        group._bench_traced = True
        group.mul = self.hot("groups.mul", group.mul)

    def wrap_context(self, ctx) -> None:
        """Wrap the public GroupRing methods on the instance, and the ring
        and group if the context was built without passing through
        make_group_ring."""
        if getattr(ctx, "_bench_traced", False):
            return
        ctx._bench_traced = True
        self.wrap_ring(ctx.ring)
        self.wrap_group(ctx.group)
        observers = {"mul": self._observe_mul, "quer": self._observe_quer}
        for name in dir(type(ctx)):
            if name.startswith("_") or not callable(getattr(type(ctx), name)):
                continue
            setattr(ctx, name, self.span(
                f"groupring.{name}", getattr(ctx, name), observers.get(name)
            ))

    def install(self) -> None:
        """Patch the module attributes; call before building contexts."""
        import pgr.arity
        import pgr.cli
        import pgr.dsl
        import pgr.groupring
        import pgr.verify

        def patch(module, attr, make):
            if hasattr(module, attr):
                setattr(module, attr, make(getattr(module, attr)))

        for module in (pgr.groupring, pgr.verify):
            patch(module, "iterate_op", lambda f: self.hot("arity.iterate_op", f))
        patch(pgr.arity, "admissible_length",
              lambda f: self.count("arity.admissible_length", f))
        for name in dir(pgr.verify):
            if name.startswith("check_"):
                patch(pgr.verify, name, lambda f, n=name: self.span(f"verify.{n}", f))
        patch(pgr.cli, "run_command", lambda f: self.span("cli.run_command", f))
        for name in ("parse_to_element", "parse_basis_label"):
            patch(pgr.cli, name, lambda f: self.span("dsl.parse", f))
        patch(pgr.dsl, "load_config", lambda f: self.span("dsl.load_config", f))
        patch(pgr.dsl, "make_group_ring", self._prewrap)

    def _prewrap(self, make_group_ring):
        """make_group_ring as load_config calls it: the ring and group are
        wrapped before the context exists.  The wrapping itself is counted
        as a wrapped child so it does not land in load_config's self time."""

        def build(ring, group, *args, **kwargs):
            t0 = perf_counter()
            self.wrap_ring(ring)
            self.wrap_group(group)
            self.child[-1] += perf_counter() - t0
            ctx = make_group_ring(ring, group, *args, **kwargs)
            t0 = perf_counter()
            self.wrap_context(ctx)
            self.child[-1] += perf_counter() - t0
            return ctx

        return build

    def take_stats(self) -> dict:
        """Return and clear the aggregated stats and counts."""
        out = {
            "stats": {k: list(v) for k, v in self.stats.items() if v[0]},
            "counts": dict(self.counts),
        }
        for v in self.stats.values():
            v[:] = [0, 0.0, 0.0]
        self.counts.clear()
        return out

    def write(self, path: Path, meta: dict) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        doc = {**meta, "dropped_spans": self.dropped,
               "span_fields": ["id", "parent", "op", "name", "start", "end"],
               "spans": self.spans}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh)
