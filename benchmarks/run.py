"""pgr benchmark: four seeded, closed-loop, single-threaded workloads.

    python3 benchmarks/run.py --workload dense-mul --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The workload runs in a child process
(worker.py) that imports pgr from ``src/``.  This process re-makes the same
inputs from the seed, checks every op's output against the reference model
(oracle.py) and the recorded quer answers, outside the timed region, and
prints a summary and, as its last line, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Times are in reference seconds (see calibrate.py): each measured time is
scaled by the machine's speed, calibrated next to it, so that a slow phase
of a shared machine does not read as a slower program.  The summary also
prints the unscaled figures.

``--trace 0`` reports the end-to-end metrics (END_TO_END); ``--trace 1``
runs half the time untraced and half traced and reports the per-layer
metrics (PER_LAYER), including the tracing overhead.  ``--workload all``
runs the four workloads one after the other.  ``--inject-fault`` swaps in a
corrupted product: the run must then report failures and exit 1.

Exit status: 0 when every op was correct, 1 when any op failed or answered
wrongly, 2 when the checkout has no pgr sources or the worker broke down.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from calibrate import REFERENCE_S, calibrate  # noqa: E402
from oracle import digest, expected_cli  # noqa: E402

SETUP_PROBES = 6  # fresh set-up-only processes per run, plus the worker's own
TIME_LIMIT_S = 170  # a run must end within 180 s

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("p50_ms", "ms"),
    ("p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# calls and busy time are per traced op; ratios have no unit
_LAYERS = (
    "arity.iterate_op", "rings.mul", "rings.add", "groups.mul",
    "groupring.mul", "groupring.element",
)
PER_LAYER = (
    *((f"{name}.calls", "count/op") for name in _LAYERS),
    ("arity.admissible_length.calls", "count/op"),
    *((f"{name}.self_s", "s/op") for name in (
        *_LAYERS, "groupring.mul_terms", "groupring.add", "groupring.quer",
        "groupring.render", "verify", "dsl.parse", "cli.run_command",
    )),
    ("groupring.mul.combos", "count/op"),
    ("groupring.mul.collapse_ratio", "ratio"),
    ("groupring.quer.mul_calls", "count/op"),
    ("groupring.quer.found_ratio", "ratio"),
    ("verify.cases", "count/op"),
    ("verify.exhaustive_ratio", "ratio"),
    ("dsl.load_config.self_s", "s/call"),
    ("trace.ops_per_s", "1/s"),
    ("trace.slowdown", "ratio"),
    ("trace.coverage", "ratio"),
)


# correctness gate -----------------------------------------------------------


class Checker:
    """Judges each op's output record; every judgement runs outside the
    worker's timed region."""

    def __init__(self, workload: str):
        self.workload = workload
        names = (workloads.CLI_OVERRIDES if workload == "cli-session"
                 else workloads.contexts_for(workload))
        self.models = {n: workloads.MODELS[n] for n in names}
        self.quer_ref = None
        if workload == "quer-search":
            self.quer_ref = workloads.load_quer_reference()
            self.recorded = {
                ctx: {self.models[ctx].canonical(x): q for x, q in rows}
                for ctx, rows in self.quer_ref.items()
            }
        self._identities: dict = {}

    def ops(self, seed: int, cycles: int):
        for index in range(cycles):
            yield from workloads.cycle(self.workload, seed, index, self.quer_ref)

    def correct(self, op: dict, record) -> bool:
        model = self.models[op["ctx"]]
        if self.workload == "dense-mul":
            xs = [model.canonical(x) for x in op["operands"]]
            return record == digest(model.mul(xs))
        if self.workload == "quer-search":
            if op["kind"] == "identities":
                if op["ctx"] not in self._identities:
                    self._identities[op["ctx"]] = model.trivial_identities()
                got = [model.canonical(workloads.pairs(e)) for e in record]
                return got == self._identities[op["ctx"]]
            x = model.canonical(op["x"])
            if record is not None:
                return model.is_quer(model.canonical(workloads.pairs(record)), x)
            # not found: only right where the seed commit found nothing
            recorded = self.recorded.get(op["ctx"], {})
            return x in recorded and recorded[x] is None
        if self.workload == "verify-laws":
            status, reports = record
            fails = (op["ctx"], op["law"]) in workloads.VERIFY_FAILS
            want = "fails" if fails else "holds"
            return (status == (3 if fails else 0) and bool(reports)
                    and all(r[1] == want for r in reports))
        if self.workload == "cli-session":
            status, got = record
            return status == 0 and got == digest(expected_cli(model, op))
        raise ValueError(self.workload)

    def judge(self, seed: int, result: dict) -> list:
        ops = list(self.ops(seed, result["cycles"]))
        if len(ops) != len(result["latencies"]):
            raise RuntimeError("worker and checker disagree on the op count")
        return [
            error is None and self._safe_correct(op, record)
            for op, error, record in zip(ops, result["errors"], result["records"])
        ]

    def _safe_correct(self, op: dict, record) -> bool:
        try:
            return self.correct(op, record)
        except (TypeError, ValueError, KeyError, IndexError):
            return False  # an output the checker cannot read is wrong


# running -------------------------------------------------------------------


def _worker_cmd(args, extra=()) -> list:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    if args.inject_fault:
        cmd.append("--inject-fault")
    return cmd


def _env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "PGR_CONFIG"}
    env["PYTHONHASHSEED"] = "0"
    return env


def _spawn(cmd: list):
    """Start a worker and wait for its ready line; returns (process,
    reference seconds from spawn to ready)."""
    speed = REFERENCE_S / calibrate()
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), stdout=subprocess.PIPE,
                            text=True)
    try:
        line = proc.stdout.readline()
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    setup = (perf_counter() - t0) * speed
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise RuntimeError("worker failed during set-up")
    return proc, setup


def _finish(proc, deadline: float) -> str:
    """Read the rest of a worker's output (through the same buffered
    stream as its ready line) and wait for it; kill it at the deadline."""
    watchdog = threading.Timer(max(deadline - perf_counter(), 1), proc.kill)
    watchdog.start()
    try:
        out = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        proc.stdout.close()
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}"
                           " (a negative status: killed at the time limit)")
    return out


def run_workload(args, deadline: float) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, setup = _spawn(_worker_cmd(args, ["--setup-only"]))
            _finish(proc, deadline)
            setups.append(setup)
    extra = []
    if args.trace:
        trace_file = ROOT / ".bench_out" / f"trace-{args.workload}-{args.seed}.json.gz"
        extra = ["--trace", str(trace_file)]
    proc, setup = _spawn(_worker_cmd(args, extra))
    setups.append(setup)
    *lines, last = _finish(proc, deadline).splitlines()
    result = json.loads(last)
    result["setups"] = setups
    for name in ("plain", "traced"):
        if name in result:
            count = result[name]["ops"]
            rows = [json.loads(line) for line in lines[:count]]
            del lines[:count]
            cals = result[name]["calibrations"]
            # reference seconds: scaled by the speed samples taken from just
            # before the op to just after it
            result[name]["latencies"] = [
                dt * REFERENCE_S / statistics.fmean(cals[first:after + 1])
                for dt, first, after, _, _ in rows
            ]
            result[name]["raw_latencies"] = [row[0] for row in rows]
            result[name]["errors"] = [row[3] for row in rows]
            result[name]["records"] = [row[4] for row in rows]
    return result


# metrics -------------------------------------------------------------------


def _ops_per_s(latencies, verdicts) -> float:
    return sum(verdicts) / sum(latencies)


def end_to_end(result: dict, verdicts: list) -> dict:
    lat = result["plain"]["latencies"]
    return {
        "setup_s": statistics.median(result["setups"]),
        "ops_per_s": _ops_per_s(lat, verdicts),
        "p50_ms": statistics.median(lat) * 1e3,
        "p90_ms": statistics.quantiles(lat, n=10)[8] * 1e3,
        "peak_rss_mb": result["peak_rss_kb"] / 1024,
    }


def per_layer(result: dict, plain_ok: list, traced_ok: list, checker) -> dict:
    traced = result["traced"]
    ops = len(traced["latencies"])
    stats, counts = result["trace"]["stats"], result["trace"]["counts"]
    speed = REFERENCE_S / statistics.median(traced["calibrations"])

    def stat(name, field):
        value = stats.get(name, [0, 0.0, 0.0])[field]
        return value if field == 0 else value * speed

    out = {}
    for name, unit in PER_LAYER:
        layer, _, what = name.rpartition(".")
        if what == "calls":
            out[name] = stat(layer, 0) / ops
        elif what == "self_s" and layer == "verify":
            out[name] = sum(stat(k, 2) for k in stats if k.startswith("verify.")) / ops
        elif what == "self_s" and layer != "dsl.load_config":
            out[name] = stat(layer, 2) / ops
    combos = counts.get("groupring.mul.combos", 0)
    out["groupring.mul.combos"] = combos / ops
    out["groupring.mul.collapse_ratio"] = (
        counts.get("groupring.mul.out_terms", 0) / combos if combos else 0.0
    )
    out["groupring.quer.mul_calls"] = counts.get("groupring.quer.mul_calls", 0) / ops
    quers = stat("groupring.quer", 0)
    out["groupring.quer.found_ratio"] = (
        counts.get("groupring.quer.found", 0) / quers if quers else 0.0
    )
    reports = [r for rec in traced["records"]
               if checker.workload == "verify-laws" and rec for r in rec[1]]
    out["verify.cases"] = sum(r[3] for r in reports) / ops
    out["verify.exhaustive_ratio"] = (
        sum(r[2] == "exhaustive" for r in reports) / len(reports) if reports else 0.0
    )
    load = result["setup_trace"]["stats"].get("dsl.load_config", [0, 0.0, 0.0])
    out["dsl.load_config.self_s"] = load[2] * speed / load[0] if load[0] else 0.0
    plain_rate = _ops_per_s(result["plain"]["latencies"], plain_ok)
    out["trace.ops_per_s"] = _ops_per_s(traced["latencies"], traced_ok)
    out["trace.slowdown"] = plain_rate / out["trace.ops_per_s"]
    layers = sum(v[2] for k, v in stats.items() if k != "op")
    out["trace.coverage"] = layers / stats["op"][1]
    return out


def report(args, result: dict, checker: Checker) -> dict:
    plain_ok = checker.judge(args.seed, result["plain"])
    verdicts = list(plain_ok)
    lat = result["plain"]["latencies"]
    if args.trace:
        traced_ok = checker.judge(args.seed, result["traced"])
        verdicts += traced_ok
        metrics = per_layer(result, plain_ok, traced_ok, checker)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(result, plain_ok)
        units = dict(END_TO_END)
    attempted, failed = len(verdicts), verdicts.count(False)
    n = len(lat)
    beyond = n - int(0.9 * n)
    print(f"{args.workload} seed={args.seed} trace={int(args.trace)}: "
          f"{n} ops in {result['plain']['cycles']} cycles, "
          f"fail_ratio={failed / attempted:.4g} ({failed}/{attempted})")
    if not args.trace:
        raw = result["plain"]["raw_latencies"]
        print(f"  setup_s from {len(result['setups'])} fresh processes; "
              f"p90_ms leaves {beyond} samples beyond it"
              + ("" if beyond >= 10 else " (fewer than 10)"))
        print(f"  times in reference seconds (calibrate.py); unscaled: "
              f"ops_per_s={sum(plain_ok) / sum(raw):.4g} "
              f"p50_ms={statistics.median(raw) * 1e3:.4g} "
              f"p90_ms={statistics.quantiles(raw, n=10)[8] * 1e3:.4g}")
    else:
        print(f"  tracing overhead: {metrics['trace.ops_per_s']:.4g} ops/s "
              f"traced vs {metrics['trace.ops_per_s'] * metrics['trace.slowdown']:.4g}"
              f" untraced ({len(result['traced']['latencies'])} traced ops)")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:.6g} {units[name]}")
    for op, ok, error in zip(checker.ops(args.seed, result["plain"]["cycles"]),
                             plain_ok, result["plain"]["errors"]):
        if not ok:
            print(f"  FAILED {op.get('ctx')} {error or 'wrong answer'}",
                  file=sys.stderr)
            break
    doc = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return doc


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=[*workloads.WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--inject-fault", action="store_true",
                   help="corrupt every product to prove the gate can fail")
    args = p.parse_args()
    if not (ROOT / "src" / "pgr" / "__init__.py").is_file():
        print(f"no pgr sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    status = 0
    for name in names:
        args.workload = name
        deadline = perf_counter() + TIME_LIMIT_S
        try:
            doc = report(args, run_workload(args, deadline), Checker(name))
        except RuntimeError as exc:
            print(f"{name}: {exc}", file=sys.stderr)
            return 2
        print(json.dumps(doc))
        status = max(status, 0 if doc["correct"] else 1)
    return status


if __name__ == "__main__":
    sys.exit(main())
