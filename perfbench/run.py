"""Run one bipoly benchmark workload and print its metrics.

    python3 perfbench/run.py --workload coded-int64 --seed 1 --seconds 20 --trace 0

With --trace 0 the run measures the end-to-end metrics with no wrapper
installed.  With --trace 1 it spends half of --seconds untraced (for the
baselines that traced numbers are compared against) and half with the
span tracer installed, and reports the per-layer metrics.  Either way
it prints a table of every metric it measured, writes the full record
(environment, sample counts, percentiles, spans) under perfbench/out/,
and prints as its last line one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

It exits 2 without a result when the bipoly sources are missing.
"""

import argparse
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "bipoly" / "__init__.py").is_file():
        print(f"perfbench: no bipoly package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import bipoly

    if Path(bipoly.__file__).resolve().parent != (SRC / "bipoly").resolve():
        print(f"perfbench: bipoly imported from {bipoly.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    import harness
    import report
    from tracing import Tracer

    if args.workload not in harness.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {sorted(harness.WORKLOADS)}", file=sys.stderr)
        return 2

    runner = harness.make_runner(args.workload, args.seed)
    setup = harness.Phase()
    reps = harness.SETUP_REPS
    imports = [harness.import_seconds(SRC) for _ in range(reps)]
    set_ups = [runner.setup_once(r, setup) for r in range(reps)]
    setup_s = report.median(imports) + report.median(set_ups)
    if args.trace:
        base = harness.measure(runner, args.seconds / 2, 0, direct=True)
        tracer = Tracer()
        with tracer:
            traced = harness.measure(runner, args.seconds / 2, base.attempted, tracer=tracer)
        phases = [setup, base, traced]
        record = report.traced_record(base, traced, tracer, setup_s, reps, phases)
    else:
        base = harness.measure(runner, args.seconds, 0)
        tracer = None
        phases = [setup, base]
        record = report.untraced_record(base, setup_s, reps)
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    errors = [e for p in phases for e in p.errors] + record.pop("harness_errors", [])
    record.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        attempted=attempted,
        failed=failed,
        errors=errors,
        env=report.environment(ROOT, runner.kernel_path),
        setup={"import_s": imports, "set_up_s": set_ups},
    )
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        (OUT / f"{stem}-spans.json").write_text(json.dumps(tracer.to_json()) + "\n")
    report.print_table(record)
    metrics = record["per_layer"] if args.trace else record["end_to_end"]
    print(json.dumps({
        "correct": failed == 0 and not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
