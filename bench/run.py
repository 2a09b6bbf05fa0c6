"""Benchmark of the matchgames CLI pipelines.

    python3 bench/run.py --workload zs-market --seed 1 --seconds 40 --trace 0

Runs one workload (or ``all``) in this process: generates its inputs from
the seed, takes them through the CLI by calling ``matchgames.cli.main``
in-process (one process, no threads), checks every output with
``checks.py``, and prints each metric of BENCHMARK.json with its unit.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.

A pass takes every unit and fault probe of the workload once.  Passes repeat
while another whole pass fits in ``--seconds``; there is always at least
one.  With ``--trace 1`` one untraced pass is followed by one pass with
every function in ``tracing.LAYERS`` wrapped; the difference in command
time between the two is the tracing overhead, and the spans are written to
``.bench_run/spans-<workload>.jsonl.gz`` (see ``Tracer.write_jsonl``).

The host's speed drifts by up to a fifth over tens of seconds, shared as it
is with other work, and the drift moves process CPU time as much as wall
time.  So ``unit_s`` and ``setup_s`` are scaled to a fixed speed: a fixed
pure-Python task (``Reference``) is timed just before each unit and each
set-up, and a time t measured next to a reference time r is reported as
t * REF_SECONDS / r.  The raw figures are printed too.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import random
import re
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
# The reference task's median time on the 2-core host of the README figures.
REF_SECONDS = 0.035
RATIONAL = re.compile(r"-?\d+(/\d+)?")
# Step metric -> per-command metric: the median seconds of one such command.
COMMANDS = {
    "solve_dac": "solve_dac_s",
    "verify": "verify_s",
    "renegotiate": "renegotiate_s",
    "verify_rp": "verify_rp_s",
    "aspiration": "aspiration_s",
    "realize": "realize_s",
    "contracts_audit": "contracts_audit_s",
}
# Throughput metric -> the steps one input goes through; the first step
# counts the inputs.
THROUGHPUTS = {
    "markets_per_s": ("solve_dac", "verify", "renegotiate", "verify_rp"),
    "roommates_per_s": ("aspiration", "realize"),
    "contract_models_per_s": ("contracts_audit",),
}


class Reference:
    """A fixed pure-Python task whose time tracks the host's current speed:
    exact-rational arithmetic, hashing and sorting over 3000 Fractions."""

    def __init__(self):
        rng = random.Random(0)
        self.pool = [Fraction(rng.randrange(-10**4, 10**4), rng.randrange(1, 200)) for _ in range(3000)]

    def seconds(self):
        start = time.perf_counter()
        pool = self.pool
        acc = Fraction(0)
        for x, y in zip(pool[::5], pool[1::5]):
            acc += x * y - x / (y * y + 1)
        counts = {}
        for k, x in enumerate(pool):
            counts[x] = counts.get(x, 0) + k
        sorted(pool)
        return time.perf_counter() - start


def interquartile_mean(values):
    """Mean of the middle half of ``values``: as robust to a few slow units as
    the median, and steadier from seed to seed."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    return statistics.fmean(ordered[cut:len(ordered) - cut])


def scaled(seconds, reference_seconds):
    """``seconds`` at the host speed where the reference task takes REF_SECONDS."""
    return seconds * REF_SECONDS / reference_seconds


def run_cli(cli, argv, tracer=None, name=None):
    """(exit code, seconds, stderr text) of one in-process CLI call."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        span = contextlib.nullcontext()
        if tracer is not None:
            tracer.current_op += 1
            span = tracer.span(f"cli.{name}")
        start = time.perf_counter()
        try:
            with span:
                code = cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:  # a crash is one failed operation, not the end of the run
            code = -1
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
    return code, seconds, err.getvalue().strip()


class PassResult:
    def __init__(self):
        self.units = []            # per completed unit, in order: [(step metric, seconds)]
        self.unit_refs = []        # per completed unit: reference seconds timed just before it
        self.unit_bytes = []       # per completed unit: bytes its commands emitted
        self.command_seconds = 0.0
        self.wall = 0.0
        self.out_bytes = 0
        self.attempted = 0
        self.failed = 0
        self.failures = []         # (operation, error text)
        self.check_errors = []
        self.digest = hashlib.sha256()
        self.doc_counters = {"cycle_steps": 0, "max_bits": 0, "sweeps": 0}


def _scan_doc(doc, metric, counters):
    """Counters read from an emitted document."""
    def walk(value):
        if isinstance(value, dict):
            for v in value.values():
                walk(v)
        elif isinstance(value, list):
            for v in value:
                walk(v)
        elif isinstance(value, str) and RATIONAL.fullmatch(value):
            for part in value.lstrip("-").split("/"):
                counters["max_bits"] = max(counters["max_bits"], int(part).bit_length())

    walk(doc)
    for entry in doc.get("cycles", {}).values():
        counters["cycle_steps"] += len(entry["cycle"])
    if metric == "renegotiate":
        counters["sweeps"] += doc["sweeps"]


def run_pass(cli, wl, checks, first, tracer=None, reference=None):
    """Every unit and probe once; ``first`` also checks and scans the outputs.
    With a ``reference``, the reference task is timed before every unit."""
    res = PassResult()
    start = time.perf_counter()
    for unit in wl.units:
        ref_s = reference.seconds() if reference is not None else None
        docs, codes, seconds, broken = {}, {}, [], False
        nbytes = 0
        for step in unit.steps:
            res.attempted += 1
            if broken:
                res.failed += 1
                continue
            code, dt, err = run_cli(cli, step.argv, tracer, step.metric)
            if code not in step.ok_codes:
                res.failed += 1
                res.failures.append((" ".join(step.argv), f"exit {code}: {err}"))
                broken = True
                continue
            data = Path(step.output).read_bytes()
            res.digest.update(Path(step.output).name.encode() + b"\0" + data)
            res.out_bytes += len(data)
            nbytes += len(data)
            res.command_seconds += dt
            seconds.append((step.metric, dt))
            codes[step.key] = code
            if first:
                docs[step.key] = json.loads(data)
                _scan_doc(docs[step.key], step.metric, res.doc_counters)
        if broken:
            continue
        res.units.append(seconds)
        res.unit_refs.append(ref_s)
        res.unit_bytes.append(nbytes)
        if first:
            try:
                unit.check(docs, codes)
            except checks.CheckError as exc:
                res.check_errors.append(f"{unit.steps[0].argv}: {exc}")
    for probe in wl.probes:
        res.attempted += 1
        code, _, err = run_cli(cli, probe.argv, tracer, "probe")
        if code != 0:
            res.failed += 1
            res.failures.append((probe.name, f"exit {code}: {err}"))
        elif first:
            try:
                probe.check(json.loads(Path(probe.output).read_bytes()))
            except checks.CheckError as exc:
                res.check_errors.append(f"probe {probe.name}: {exc}")
    res.wall = time.perf_counter() - start
    return res


def setup(builder, cli, work, seed, units, reference):
    """Generate and write the inputs SETUP_REPEATS times; (workload, median
    scaled seconds, median raw seconds)."""
    def gen(argv):
        code, _, err = run_cli(cli, argv)
        if code != 0:
            raise RuntimeError(f"input generation failed: {' '.join(argv)}: {err}")

    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        refs.append(reference.seconds())
        start = time.perf_counter()
        wl = builder(gen, work, seed, units)
        times.append(time.perf_counter() - start)
    return (wl, statistics.median(scaled(t, r) for t, r in zip(times, refs)),
            statistics.median(times))


def command_metrics(passes):
    """Per-command medians and throughputs over every completed unit;
    also (name -> samples) for the per-command tail percentiles."""
    samples = {}
    for p in passes:
        for unit in p.units:
            for metric, seconds in unit:
                samples.setdefault(metric, []).append(seconds)
    values = {COMMANDS[m]: statistics.median(v) for m, v in samples.items()}
    for name, steps in THROUGHPUTS.items():
        if steps[0] in samples:
            values[name] = len(samples[steps[0]]) / sum(sum(samples[s]) for s in steps)
    return values, {COMMANDS[m]: v for m, v in samples.items()}


def tail(values):
    """(p, p-th percentile) for the highest multiple-of-5 percentile with at
    least ten samples above it, or None below forty samples."""
    if len(values) < 40:
        return None
    p = 5 * math.floor(20 * (1 - 10 / len(values)))
    return p, statistics.quantiles(values, n=100)[p - 1]


def layer_metrics(tracer, tracing, counters, untraced):
    out = {}
    summary = tracer.summary()
    for name in tracing.traced_names():
        calls, self_s = summary.get(name, (0, 0.0))
        out[f"{name}.calls"] = calls
        out[f"{name}.self_s"] = self_s
    c = counters
    out["dac.turns"] = c["turns"]
    out["dac.seat_bindings"] = c["seat_bindings"]
    out["dac.competitions"] = c["competitions"]
    out["dac.bindings_per_turn"] = c["seat_bindings"] / c["turns"] if c["turns"] else 0.0
    out["qcqp.cycle_steps"] = untraced.doc_counters["cycle_steps"]
    out["core.max_bits"] = untraced.doc_counters["max_bits"]
    out["renegotiation.sweeps"] = untraced.doc_counters["sweeps"]
    checks_n = summary.get("renegotiation.check_couple_is_cne", (0, 0.0))[0]
    moved_n = summary.get("renegotiation.select_process_cne", (0, 0.0))[0]
    out["renegotiation.moved_per_check"] = moved_n / checks_n if checks_n else 0.0
    hospital_calls = summary.get("contracts.choice_hospital", (0, 0.0))[0]
    out["contracts.choice_hospital.distinct_ratio"] = (
        len(c["choice_keys"]) / hospital_calls if hospital_calls else 0.0)
    return out


def traced_pass(cli, wl, checks, tracing):
    """One pass with every layer function wrapped; (pass result, tracer, counters)."""
    counters = {"turns": 0, "seat_bindings": 0, "competitions": 0, "choice_keys": set()}

    def count_dac(args, result):
        dac_trace = result[1]
        counters["turns"] += dac_trace.loop_passes
        counters["seat_bindings"] += dac_trace.iterations
        counters["competitions"] += dac_trace.competitions

    def count_choice(args, result):
        model, h, pool = args[0], args[1], args[2]
        own = frozenset(c for c in pool if model.contracts[c].hospital == h)
        counters["choice_keys"].add((tracer.current_op, h, own))

    tracer = tracing.Tracer(observers={"dac.run_dac": count_dac,
                                       "contracts.choice_hospital": count_choice})
    tracer.install()
    try:
        res = run_pass(cli, wl, checks, first=False, tracer=tracer)
    finally:
        tracer.uninstall()
    return res, tracer, counters


def run_workload(name, seed, seconds, trace, spec, cli, modules):
    checks, tracing, workloads = modules
    builder, units = workloads.WORKLOADS[name]
    work = RUN_DIR / f"{name}-s{seed}"
    reference = Reference()
    wl, setup_s, raw_setup_s = setup(builder, cli, work, seed, units, reference)

    start = time.perf_counter()
    passes = [run_pass(cli, wl, checks, first=True, reference=reference)]
    while not trace and time.perf_counter() - start + passes[-1].wall <= seconds:
        passes.append(run_pass(cli, wl, checks, first=False, reference=reference))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    first = passes[0]
    problems = list(first.check_errors)
    digest = first.digest.hexdigest()
    for p in passes[1:]:
        if p.digest.hexdigest() != digest:
            problems.append("a later pass emitted different bytes than the first")

    unit_seconds = [sum(dt for _, dt in u) for p in passes for u in p.units]
    unit_refs = [r for p in passes for r in p.unit_refs]
    values = {
        "setup_s": setup_s,
        "unit_s": interquartile_mean(map(scaled, unit_seconds, unit_refs)) if unit_seconds else 0.0,
        "output_kb": statistics.median(first.unit_bytes) / 1024 if first.unit_bytes else 0.0,
        "peak_rss_mb": peak_rss_mb,
    }
    per_command, samples = command_metrics(passes)
    values.update({f"cli.{k}": v for k, v in per_command.items()})
    values["cli.total_output_kb"] = first.out_bytes / 1024

    if trace:
        traced, tracer, counters = traced_pass(cli, wl, checks, tracing)
        if traced.digest.hexdigest() != digest:
            problems.append("the traced pass emitted different bytes than the untraced one")
        values["trace.overhead_s"] = traced.command_seconds - first.command_seconds
        spans_path = RUN_DIR / f"spans-{name}.jsonl.gz"
        n_spans = tracer.write_jsonl(spans_path)
        values.update(layer_metrics(tracer, tracing, counters, first))
    shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    section = "per_layer" if trace else "end_to_end"
    metrics = {}
    for m in spec[section]:
        if m["name"] not in values:
            # Metrics of commands this workload does not run read 0 (per-layer only).
            if section == "end_to_end" or not m["name"].startswith("cli."):
                problems.append(f"metric {m['name']} is not measured by this runner")
            values[m["name"]] = 0.0
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}

    print(f"workload {name} seed {seed}: {len(wl.units)} units per pass, {len(passes)} "
          f"untraced passes ({', '.join(f'{p.wall:.1f} s, {p.command_seconds:.1f} s in commands' for p in passes)}), "
          f"{attempted} operations attempted, {failed} failed")
    for operation, error in first.failures:
        print(f"  failed: {operation}: {error.splitlines()[-1] if error else ''}")
    for probe in wl.probes:
        print(f"  fault probe: {probe.name} (cause: {probe.cause})")
    print(f"  output digest sha256:{digest}")
    for m in spec[section]:
        print(f"  {m['name']} {metrics[m['name']]['value']} {m['unit']}")
    if not trace:
        for metric, value in per_command.items():
            unit = "1/s" if metric.endswith("_per_s") else "s"
            line = f"  {metric} {value} {unit}"
            if metric in samples:
                line += f" (median of {len(samples[metric])}"
                pct = tail(samples[metric])
                line += f", p{pct[0]} {pct[1]:.6f} s)" if pct else ")"
            print(line)
        print(f"  total_output_kb {values['cli.total_output_kb']} KB")
        print(f"  raw: unit_s {interquartile_mean(unit_seconds) if unit_seconds else 0.0} s, "
              f"setup_s {raw_setup_s} s, reference task {statistics.median(unit_refs)} s "
              f"(REF_SECONDS {REF_SECONDS} s)")
    else:
        print(f"  tracing overhead: {values['trace.overhead_s']:.4f} s "
              f"({traced.command_seconds:.4f} s traced, {first.command_seconds:.4f} s untraced), "
              f"{n_spans} spans in {spans_path.relative_to(ROOT)}")
    for problem in problems:
        print(f"  CHECK FAILED: {problem}")
    return {"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="zs-market, mixed-market, roommates-contracts or all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "matchgames" / "cli.py").is_file() or not spec_path.is_file():
        print("error: run from a checkout holding src/matchgames and BENCHMARK.json", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    from matchgames import cli

    import checks
    import selftest
    import tracing
    import workloads

    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(n not in workloads.WORKLOADS for n in names):
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    problems = selftest.run_all()
    if problems:
        for line in problems:
            print(f"error: checker self-test: {line}", file=sys.stderr)
        return 1

    ok = True
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace, spec, cli,
                              (checks, tracing, workloads))
        ok = ok and result["correct"]
        print(json.dumps(result), flush=True)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
