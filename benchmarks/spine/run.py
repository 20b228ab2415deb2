"""Measurement spine: the repo's end-to-end benchmark, one command.

    python3 benchmarks/spine/run.py [--seed N] [--seconds S] [--profile]
        all four workloads, each pass in a fresh subprocess; prints every
        metric by name with its unit, verifies outputs, writes a result
        JSON under benchmarks/spine/out/

    python3 benchmarks/spine/run.py --workload W --seed N --seconds S --trace T
        one workload in this process (the BENCHMARK.json contract):
        --trace 0 -> the end-to-end metrics, --trace 1 -> the per-layer
        metrics; the last stdout line is the result object

    python3 benchmarks/spine/run.py --selftest
    python3 benchmarks/spine/run.py --compare A.json B.json

See README.md beside this file for the metric glossary and baseline.
"""

import time

_PROCESS_START = time.perf_counter()      # setup_s is measured from here

import argparse          # noqa: E402
import gc                # noqa: E402
import json              # noqa: E402
import subprocess        # noqa: E402
import sys               # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
# ``spine`` is imported as a package from benchmarks/, so its trace.py
# never shadows the standard library's ``trace`` for anyone's import.
sys.path[0] = str(HERE.parent)
sys.path.insert(1, str(ROOT / "src"))

#: fresh-process set-up samples behind one ``setup_s`` (own + probes).
SETUP_SAMPLES = 5
DRILL_SECONDS = 0.25
DEFAULT_SEED = 11


def _imports():
    try:
        import repro  # noqa: F401
    except ImportError as exc:
        sys.stderr.write(f"spine: cannot import the program under "
                         f"{ROOT / 'src'}: {exc}\n")
        raise SystemExit(2)
    from spine import metrics, passes
    return metrics, passes


def _child(args: list) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(HERE / "run.py")] + args,
                          stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, cwd=str(ROOT))


def _last_json(proc: subprocess.CompletedProcess) -> dict:
    if proc.returncode != 0:
        raise RuntimeError(f"child exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# -- one workload, in this process ------------------------------------------

def setup_probe(args) -> int:
    """Child mode: set up and warm up, report how long it took."""
    _imports()
    from spine.trace import Tracer
    from spine.workloads import make

    workload = make(args.workload, args.seed, args.seconds, Tracer())
    workload.setup()
    workload.warmup()
    gc.collect()
    print(json.dumps({"setup_s": time.perf_counter() - _PROCESS_START}))
    return 0


def run_workload(args) -> int:
    metrics, passes = _imports()
    ready = {}
    untraced = passes.run_pass(
        args.workload, args.seed, args.seconds,
        record_wire=bool(args.trace),
        on_ready=lambda: ready.setdefault(
            "setup_s", time.perf_counter() - _PROCESS_START))
    problems = list(untraced["problems"])
    OUT.mkdir(exist_ok=True)
    doc = {"workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "untraced": passes.public(untraced)}

    if not args.trace:
        samples = [ready["setup_s"]]
        for _ in range(args.setup_samples - 1):
            probe = _last_json(_child([
                "--workload", args.workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--setup-probe"]))
            samples.append(probe["setup_s"])
        values = passes.end_to_end(untraced, samples)
        doc["setup_samples_s"] = samples
        doc["end_to_end"] = values
        declared = metrics.END_TO_END
    else:
        wire = untraced.pop("_wire")
        workload_cls = type(untraced.pop("_workload"))
        gc.collect()               # the untraced world is garbage now
        drilled = passes.run_drills(workload_cls, wire, args.drill_seconds)
        del wire
        traced = passes.run_pass(args.workload, args.seed, args.seconds,
                                 traced=True)
        problems += [f"traced pass: {p}" for p in traced["problems"]]
        problems += _sim_mismatches(untraced, traced)
        values, shares = passes.per_layer(untraced, traced, drilled)
        spans_path = OUT / f"{args.workload}.seed{args.seed}.spans.json"
        traced["_tracer"].write(spans_path)
        # For the record only (and the selftest's determinism check):
        # --trace 1 prints per-layer metrics, never these.
        doc["end_to_end"] = passes.end_to_end(untraced, [ready["setup_s"]])
        doc.update(traced=passes.public(traced), drills=drilled,
                   shares=shares, per_layer=values,
                   spans_file=str(spans_path.relative_to(ROOT)),
                   span_calls=dict(traced["_tracer"].calls))
        if args.profile:
            profiled = passes.run_pass(args.workload, args.seed,
                                       args.seconds, profile=True)
            doc["profile_share"] = passes.profile_shares(
                profiled["_profile"])
        declared = metrics.PER_LAYER

    doc["problems"] = problems
    result_path = OUT / (f"{args.workload}.seed{args.seed}"
                         f".trace{args.trace}.json")
    with open(result_path, "w") as fh:
        json.dump(doc, fh, indent=1)

    for m in declared:
        print(f"{m.name:45s} {values[m.name]:>18.6f} {m.unit}")
    for problem in problems:
        print(f"FAILED: {problem}")
    print(json.dumps({
        "correct": not problems,
        "attempted": int(untraced["attempted"]),
        "failed": int(untraced["failed"]),
        "metrics": {m.name: {"value": values[m.name], "unit": m.unit}
                    for m in declared},
    }))
    return 0 if not problems else 1


#: fields of a pass record that are simulated, hence exact for a seed.
SIM_FIELDS = ("ops", "attempted", "failed", "retried", "sim_s",
              "sim_latency_ms_p50", "sim_latency_ms_p99",
              "latency_samples", "kernel_events", "obs_spans", "counters",
              "net_dropped")


def _sim_mismatches(a: dict, b: dict) -> list:
    """Tracing must not perturb the simulation: every simulated number
    of the traced pass equals the untraced pass's."""
    return [f"sim field {key!r} differs between passes: "
            f"{a[key]!r} != {b[key]!r}"
            for key in SIM_FIELDS if a[key] != b[key]]


# -- all four workloads ------------------------------------------------------

def run_all(args) -> int:
    metrics, _passes = _imports()
    result = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    status = 0
    for workload in metrics.WORKLOADS:
        entry = {}
        for trace in (0, 1):
            extra = ["--profile"] if (args.profile and trace) else []
            sys.stderr.write(f"spine: {workload.name} --trace {trace}\n")
            proc = _child(["--workload", workload.name,
                           "--seed", str(args.seed),
                           "--seconds", str(args.seconds),
                           "--trace", str(trace)] + extra)
            if proc.returncode not in (0, 1):
                sys.stderr.write(proc.stderr)
                return proc.returncode
            status = max(status, proc.returncode)
            path = OUT / f"{workload.name}.seed{args.seed}.trace{trace}.json"
            with open(path) as fh:
                entry[f"trace{trace}"] = json.load(fh)
        t0, t1 = entry["trace0"], entry["trace1"]
        result["workloads"][workload.name] = {
            "end_to_end": t0["end_to_end"],
            "setup_samples_s": t0["setup_samples_s"],
            "chunk_quartiles_s": t0["untraced"]["chunk_quartiles_s"],
            "chunk_iqr_ratio": t0["untraced"]["chunk_iqr_ratio"],
            "latency_samples": t0["untraced"]["latency_samples"],
            "ops": t0["untraced"]["ops"],
            "per_layer": t1["per_layer"],
            "shares": t1["shares"],
            "profile_share": t1.get("profile_share"),
            "spans_file": t1["spans_file"],
            "problems": t0["problems"] + t1["problems"],
        }
    out_path = Path(args.out) if args.out else (
        OUT / f"spine.seed{args.seed}.json")
    with open(out_path, "w") as fh:
        json.dump(result, fh, indent=1)
    _print_report(metrics, result)
    print(f"result written to {out_path}")
    return status


def _print_report(metrics, result: dict) -> None:
    names = [w.name for w in metrics.WORKLOADS]
    print(f"\n{'metric':42s} {'unit':6s} " + " ".join(f"{n:>15s}"
                                                     for n in names))
    for section, declared in (("end_to_end", metrics.END_TO_END),
                              ("per_layer", metrics.PER_LAYER)):
        print(f"-- {section} " + "-" * 100)
        for m in declared:
            cells = " ".join(
                f"{result['workloads'][n][section][m.name]:>15.4f}"
                for n in names)
            print(f"{m.name:42s} {m.unit:6s} {cells}")
    print("-- share source " + "-" * 97)
    for layer, entry in result["workloads"][names[0]]["shares"].items():
        print(f"{layer:42s} {entry['source']}")
    for name in names:
        samples = result["workloads"][name]["latency_samples"]
        print(f"{name}: {samples} latency samples, problems: "
              f"{result['workloads'][name]['problems'] or 'none'}")


# -- entry ------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--profile", action="store_true",
                        help="add a cProfile pass and profile_share")
    parser.add_argument("--out", help="result JSON path (all-workloads run)")
    parser.add_argument("--selftest", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--write-manifest", action="store_true",
                        help="regenerate BENCHMARK.json from metrics.py")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-samples", type=int, default=SETUP_SAMPLES,
                        help=argparse.SUPPRESS)
    parser.add_argument("--drill-seconds", type=float,
                        default=DRILL_SECONDS, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.compare:
        metrics, _passes = _imports()
        from spine.compare import compare
        return compare(*args.compare)
    if args.selftest:
        _imports()
        from spine.selftest import selftest
        return selftest()
    metrics, _passes = _imports()
    if args.write_manifest:
        with open(ROOT / "BENCHMARK.json", "w") as fh:
            json.dump(metrics.manifest(), fh, indent=2)
            fh.write("\n")
        return 0
    if args.seconds is None:
        args.seconds = float(metrics.RUN_SECONDS)
    if args.workload is None:
        return run_all(args)
    if args.workload not in [w.name for w in metrics.WORKLOADS]:
        parser.error(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        return setup_probe(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
