#!/usr/bin/env python3
"""End-to-end SCOPe benchmark: one workload, one seed, every output checked.

Run from the repository root::

    python3 e2e_bench/run.py --workload engine_stream --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` prints its per-layer metrics and writes the run's spans to
``.bench_out/``.  The last line of standard output is one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are a human-readable report (host stamp, tail percentile and
sample count, any failed check).  See ``e2e_bench/README.md``.

``--quick`` (small inputs) and ``--corrupt`` (drop one event or query from a
copy of the first repetition's inputs) exist for ``e2e_bench/selftest.py``.
"""

import os

# One process, no thread pools: BLAS is pinned to one thread before numpy
# loads, so the numbers do not depend on how many cores are free.
for _variable in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
):
    os.environ[_variable] = "1"

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from contextlib import ExitStack  # noqa: E402
from dataclasses import dataclass, field, replace  # noqa: E402
from pathlib import Path  # noqa: E402

import harness  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"


@dataclass
class Rep:
    """One repetition: setup, run, the outputs kept for checking.

    ``setup_s``, ``run_s`` and ``window_latency_s`` are scaled to the
    reference host speed (:class:`harness.SpeedClock`); ``raw_setup_s`` and
    ``raw_run_s`` are the wall seconds.
    """

    index: int
    traced: bool
    setup_s: float
    run_s: float
    raw_setup_s: float
    raw_run_s: float
    window_latency_s: list
    calibration: list
    slow_host: bool
    outcome: object
    layers: dict = field(default_factory=dict)
    snapshot: object = None  # the traced repetition's spans and metrics


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true", help="small inputs (self-test)")
    parser.add_argument(
        "--corrupt", action="store_true", help="corrupt the first repetition (self-test)"
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        print(f"the program's source is missing: no {source / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(source))
    from repro import obs
    from workloads import WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload](quick=args.quick)
    traced_run = bool(args.trace)

    print(f"# workload {workload.name} seed {args.seed}: {workload.sizes()}")
    print(f"# host {json.dumps(harness.host_stamp())}")

    # The repetition count follows from --seconds and the workload's nominal
    # repetition time on the reference host, not from the clock: every
    # invocation pools the same number of samples, so a percentile never
    # moves because the host happened to be faster or slower.
    count = 1 if args.quick else max(3, round(args.seconds / workload.nominal_rep_s))
    if traced_run:
        # Untraced and traced repetitions alternate, so host drift cannot
        # masquerade as tracing overhead (trace.overhead_pct).
        half = max(1 if args.quick else 2, (count + 1) // 2)
        plan = [False, True] * half
    else:
        plan = [False] * count
    reps: list[Rep] = []
    reruns = 0
    for trace_this in plan:
        while True:
            rep = run_rep(workload, args, len(reps), trace_this, obs)
            reps.append(rep)
            # A flagged repetition is kept for the checks but measured again,
            # at most once per three planned repetitions.
            if not rep.slow_host or reruns >= max(1, len(plan) // 3):
                break
            reruns += 1
    rss_mb = harness.peak_rss_mb()

    reference = workload.reference(args.seed)
    # -- checks -------------------------------------------------------------
    attempted = failed = 0
    reasons: list[str] = list(reference.errors)
    for rep in reps:
        results = compare(rep.outcome.ops, reference.ops)
        for position, finding in enumerate(rep.outcome.op_errors):
            if finding and position < len(results) and results[position] is None:
                results[position] = finding
        if rep.outcome.rep_errors or reference.errors:
            cause = (rep.outcome.rep_errors or reference.errors)[0]
            results = [result or cause for result in results]
        attempted += len(results)
        bad = [result for result in results if result]
        failed += len(bad)
        reasons.extend(f"repetition {rep.index}: {reason}" for reason in bad)
    correct = failed == 0 and not reference.errors
    for reason in reasons[:20]:
        print(f"# FAILED {reason}")

    # -- metrics --------------------------------------------------------------
    def kept(candidates):
        steady = [rep for rep in candidates if not rep.slow_host]
        return steady or candidates

    untraced = kept([rep for rep in reps if not rep.traced])
    flagged = sum(rep.slow_host for rep in reps)
    print(
        f"# repetitions: {len(reps)} ({sum(rep.traced for rep in reps)} traced), "
        f"{flagged} flagged slow_host and left out of the medians"
    )
    print(
        "# run_s per repetition: "
        + ", ".join(f"{rep.run_s:.3f}{'*' if rep.slow_host else ''}" for rep in reps)
    )
    print(
        "# calibration loop median per repetition (range over its splits): "
        + ", ".join(
            f"{harness.median(rep.calibration) * 1e3:.2f} "
            f"({min(rep.calibration) * 1e3:.2f}-{max(rep.calibration) * 1e3:.2f})"
            for rep in reps
        )
        + " ms"
    )
    if traced_run:
        traced = kept([rep for rep in reps if rep.traced])
        names = [metric["name"] for metric in spec["per_layer"]]
        units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
        unknown = {name for rep in traced for name in rep.layers} - set(names)
        if unknown:
            raise KeyError(f"layer metrics missing from BENCHMARK.json: {sorted(unknown)}")
        values = {
            name: harness.median([rep.layers.get(name, 0.0) for rep in traced])
            for name in names
        }
        values["trace.overhead_pct"] = 100.0 * (
            harness.median([rep.run_s for rep in traced])
            / harness.median([rep.run_s for rep in untraced])
            - 1.0
        )
        OUT.mkdir(exist_ok=True)
        trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.jsonl"
        trace_path.write_text(obs.to_jsonl(merged_snapshot(reps, obs)))
        print(f"# spans written to {trace_path.relative_to(ROOT)}")
    else:
        names = [metric["name"] for metric in spec["end_to_end"]]
        units = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
        # Times are reported at the reference host speed, segment by segment
        # (harness.SpeedClock): this shared host changes speed by tens of
        # percent every few seconds, the calibration loop tracks that, and no
        # change to the program can move the loop.
        latency_ms = [1e3 * value for rep in untraced for value in rep.window_latency_s]
        tail_ms, tail_pct, samples = harness.tail(latency_ms)
        bill = reps[-1].outcome.bill
        values = {
            "setup_s": harness.median([rep.setup_s for rep in untraced]),
            "run_s": harness.median([rep.run_s for rep in untraced]),
            "events_per_s": harness.median(
                [rep.outcome.events / rep.run_s for rep in untraced]
            ),
            "window_p50_ms": harness.median(latency_ms),
            "window_tail_ms": tail_ms,
            "peak_rss_mb": rss_mb,
            "bill": bill,
            "savings_pct": 100.0 * (1.0 - bill / reference.default_bill),
        }
        raw_latency_ms = [
            1e3 * value for rep in untraced for value in rep.outcome.window_latency_s
        ]
        print(
            "# times scaled to the reference calibration "
            f"({harness.REFERENCE_CALIBRATION_S * 1e3:g} ms); raw medians: "
            f"setup_s {harness.median([rep.raw_setup_s for rep in untraced]):.6g} s, "
            f"run_s {harness.median([rep.raw_run_s for rep in untraced]):.6g} s, "
            f"window_p50_ms {harness.median(raw_latency_ms):.6g} ms"
        )
        print(f"# window_tail_ms is p{tail_pct:.1f} of {samples} window latencies")
    for name in names:
        print(f"# {name} = {values[name]:.6g} {units[name]}")
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in names},
    }
    print(json.dumps(result))
    return 0


def run_rep(workload, args, index: int, traced: bool, obs) -> Rep:
    """Set up, run and read the layers (traced) of one repetition.

    One :class:`harness.SpeedClock` times it: segment 0 is the setup, then
    one segment per window, then the rest of the run.  The repetition is
    flagged ``slow_host`` when the host ran more than
    ``harness.SLOW_HOST_FACTOR`` slower at its end than at its start.
    """
    from probe import Probe, TraceProbe, covered_s  # needs src/ on the path

    corrupt = args.corrupt and index == 0
    clock = harness.SpeedClock()
    case = workload.setup(args.seed)
    clock.split()
    layers = {}
    snapshot = None
    if traced:
        handle = obs.enable()
        probe = TraceProbe()
        try:
            with ExitStack() as stack:
                for patch in workload.traced_patches(probe):
                    stack.enter_context(patch)
                with handle.tracer.span("bench.rep", workload=workload.name, rep=index):
                    calibration_before = clock.calibration_s
                    outcome = workload.run(case, probe, clock, corrupt=corrupt)
                    clock.split()
                    calibration_s = clock.calibration_s - calibration_before
            spans = handle.tracer.records()
            layers = workload.layers(outcome, probe, spans)
            # The calibration loop ran inside the repetition's span but belongs
            # to no layer of the program, so it is left out of the wall.
            wall = next(
                record.duration_s for record in spans if record.name == "bench.rep"
            ) - calibration_s
            covered = covered_s(spans, probe.busy_s["windowed"])
            layers["trace.unattributed_pct"] = 100.0 * (wall - covered) / wall
            # The export carries every traced repetition's layer values too.
            for name, value in layers.items():
                handle.metrics.gauge(f"bench.{name}").set(value)
            snapshot = handle.snapshot()
        finally:
            obs.disable()
    else:
        outcome = workload.run(case, Probe(), clock, corrupt=corrupt)
        clock.split()
    windows = len(outcome.window_latency_s)
    latency = [
        seconds * factor
        for seconds, factor in zip(outcome.window_latency_s, clock.factors[1 : 1 + windows])
    ]
    outcome.extra = {}
    case = None
    gc.collect()
    return Rep(
        index,
        traced,
        setup_s=clock.scaled(0, 1),
        run_s=clock.scaled(1),
        raw_setup_s=clock.raw_s[0],
        raw_run_s=sum(clock.raw_s[1:]),
        window_latency_s=latency,
        calibration=[sample for samples in clock.samples for sample in samples],
        slow_host=clock.slowed_down(),
        outcome=outcome,
        layers=layers,
        snapshot=snapshot,
    )


def merged_snapshot(reps, obs):
    """One export for all traced repetitions, each under its own root span.

    Every traced repetition ran with its own tracer, so span ids are shifted
    to stay unique and every metric sample is labelled with its repetition.
    """
    merged = obs.ObsSnapshot()
    offset = 0
    for rep in reps:
        if rep.snapshot is None:
            continue
        for record in rep.snapshot.spans:
            merged.spans.append(
                replace(
                    record,
                    span_id=record.span_id + offset,
                    parent_id=None if record.parent_id is None else record.parent_id + offset,
                )
            )
        for sample in rep.snapshot.metrics:
            merged.metrics.append(replace(sample, labels={**sample.labels, "rep": str(rep.index)}))
        offset += 1 + max((record.span_id for record in rep.snapshot.spans), default=0)
    return merged


def compare(got: list, expected: list) -> list:
    """None per operation equal to the reference's, else the reason."""
    results = [
        None if position < len(expected) and op == expected[position]
        else f"operation {position}: output differs from the reference"
        for position, op in enumerate(got)
    ]
    if len(got) < len(expected):
        results.append(f"{len(expected) - len(got)} operation(s) missing")
    return results


if __name__ == "__main__":
    sys.exit(main())
