"""The workload process: one client, one thread, a closed loop.

It imports pgr from the checkout's ``src/``, builds the workload's contexts,
warms them up and prints ``ready``; up to that line is the set-up time the
parent measures.  It then runs whole cycles of ops (workloads.cycle) until
``--seconds`` have passed, timing each op alone while a timer samples the
machine's speed (calibrate.py), and prints one JSON line per op with its
latency and a record of its output for the checker, then a last line with
the cycle counts, the speed samples and its peak resident memory.  With
``--trace FILE`` it runs the loop twice, half the time each: untraced, then
with the tracer installed on fresh contexts, and writes the spans to FILE.

``--inject-fault`` replaces every context's ``mul`` with the sign-dropping
product of tests/controls.py, to show that the gate catches wrong answers.
"""

from __future__ import annotations

import argparse
import json
import resource
import signal
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import workloads  # noqa: E402
from calibrate import calibrate  # noqa: E402
from oracle import digest  # noqa: E402

PROBE_EVERY_S = 0.05  # wall time between machine-speed calibrations


def build_context(spec: dict, tracer=None):
    """make_group_ring on a fresh ring and group; a tracer wraps the ring
    and group before the context is built, then the context itself."""
    from pgr import AdiagGroup, DerivedCyclicGroup, JRootRing, make_group_ring

    ring = JRootRing(spec["q"], spec["mod"])
    kind, k, *rest = spec["group"]
    group = AdiagGroup(k) if kind == "adiag" else DerivedCyclicGroup(k, rest[0])
    ell_m, ell_n, ell_g = spec.get("ell", (1, 1, 1))
    if tracer is not None:
        tracer.wrap_ring(ring)
        tracer.wrap_group(group)
    ctx = make_group_ring(ring, group, ell_m=ell_m, ell_n=ell_n, ell_g=ell_g)
    if tracer is not None:
        tracer.wrap_context(ctx)
    return ctx


def build_contexts(workload: str, tracer=None) -> dict:
    if workload == "cli-session":
        from pgr import dsl

        out = {name: dsl.load_config(None, overrides)
               for name, overrides in workloads.CLI_OVERRIDES.items()}
        if tracer is not None:
            for ctx in out.values():
                tracer.wrap_context(ctx)
        return out
    return {name: build_context(workloads.CONTEXTS[name], tracer)
            for name in workloads.contexts_for(workload)}


def warm_up(workload: str, contexts: dict) -> None:
    """One cheap call per context through the path the ops take."""
    from pgr import cli

    for ctx in contexts.values():
        g = ctx.group.elements()[0]
        x = ctx.element({g: 1})
        ctx.render(ctx.mul([x] * ctx.profile.gr_mul_arity))
        if workload in ("verify-laws", "cli-session"):
            cli.run_command(ctx, "arity", "")


def prepare(workload: str, contexts: dict, op: dict):
    """Turn one op spec into a call with no arguments (run inside the
    timed region) and a function of its result giving the output record
    (run outside it)."""
    from pgr import cli

    ctx = contexts[op["ctx"]]
    if workload == "dense-mul":
        xs = [ctx.element(x) for x in op["operands"]]
        return (lambda: ctx.mul(xs)), (lambda r: digest(r.terms))
    if workload == "quer-search":
        if op["kind"] == "identities":
            return ctx.trivial_identities, (lambda r: [e.terms for e in r])
        x = ctx.element(op["x"])
        return (lambda: ctx.quer(x)), (lambda r: None if r is None else r.terms)
    if workload == "verify-laws":
        def run():
            return cli.run_command(
                ctx, "verify", op["law"], seed=op["seed"], as_json=True
            )

        def record(r):
            out, status = r
            reports = json.loads(out)["reports"]
            return [status, [[x["axiom"], x["status"], x["mode"], x["cases"]]
                             for x in reports]]

        return run, record
    if workload == "cli-session":
        def run():
            return cli.run_command(ctx, op["verb"], op["arg"], as_json=op["json"])

        def record(r):
            out, status = r
            return [status, digest(json.loads(out) if op["json"] else out)]

        return run, record
    raise ValueError(workload)


class SpeedProbe:
    """Calibrates the machine's speed every PROBE_EVERY_S of wall time from
    a timer signal, so the samples also fall inside long library calls.
    The handler runs between bytecodes of the main thread; the time it
    takes is tallied in `spent` and taken out of the op latencies."""

    def __init__(self):
        self.samples: list = []
        self.spent = 0.0

    def sample(self, *_):
        t0 = perf_counter()
        self.samples.append(calibrate())
        self.spent += perf_counter() - t0

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        self.sample()


def run_pass(args, contexts: dict, seconds: float, tracer=None) -> dict:
    """Whole cycles until `seconds` of wall time have passed.  Each op goes
    to stdout as one JSON line: its latency without the probe's time, the
    range of speed samples taken from just before it to just after it, its
    error and its output record.  Streaming keeps this process's memory
    independent of the op count."""
    quer_ref = (workloads.load_quer_reference()
                if args.workload == "quer-search" else None)
    ops = cycles = 0
    start = perf_counter()
    with SpeedProbe() as probe:
        while cycles == 0 or perf_counter() - start < seconds:
            for op in workloads.cycle(args.workload, args.seed, cycles, quer_ref):
                call, record = prepare(args.workload, contexts, op)
                first, spent = len(probe.samples) - 1, probe.spent
                if tracer is not None:
                    tracer.begin_op(ops)
                t0 = perf_counter()
                try:
                    result = call()
                except Exception as exc:  # a raising op is a failed op
                    result, error = None, f"{type(exc).__name__}: {exc}"
                else:
                    error = None
                dt = perf_counter() - t0 - (probe.spent - spent)
                if tracer is not None:
                    tracer.end_op()
                ops += 1
                out = None
                if error is None:
                    try:
                        out = record(result)
                    except (TypeError, ValueError, KeyError) as exc:
                        error = f"unreadable output: {type(exc).__name__}: {exc}"
                line = [dt, first, len(probe.samples), error, out]
                sys.stdout.write(json.dumps(line, separators=(",", ":")) + "\n")
            cycles += 1
    return {"cycles": cycles, "ops": ops, "calibrations": probe.samples}


def inject_fault(contexts: dict) -> None:
    sys.path.insert(0, str(ROOT / "tests"))
    import controls

    for ctx in contexts.values():
        ctx.mul = controls.AbsCoefficientMul(ctx).mul


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", metavar="FILE", help="trace, writing spans to FILE")
    p.add_argument("--setup-only", action="store_true")
    p.add_argument("--inject-fault", action="store_true")
    args = p.parse_args()

    contexts = build_contexts(args.workload)
    warm_up(args.workload, contexts)
    print("ready", flush=True)
    if args.setup_only:
        return 0
    if args.inject_fault:
        inject_fault(contexts)

    out: dict = {}
    if not args.trace:
        out["plain"] = run_pass(args, contexts, args.seconds)
    else:
        from tracer import Tracer

        out["plain"] = run_pass(args, contexts, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        tracer.on = True
        traced = build_contexts(args.workload, tracer)
        tracer.on = False
        out["setup_trace"] = tracer.take_stats()
        if args.inject_fault:
            inject_fault(traced)
        out["traced"] = run_pass(args, traced, args.seconds / 2, tracer)
        out["trace"] = tracer.take_stats()
        tracer.write(Path(args.trace), {
            "workload": args.workload, "seed": args.seed, **out["trace"],
        })
    out["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(out, separators=(",", ":")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
