"""modscramble benchmark: one closed-loop client, three workloads, checked outputs.

    python3 perfbench/run.py --workload bulk-images --seed 1 --seconds 20 --trace 0

Workloads are ``bulk-images``, ``fresh-keys`` and ``research``; README.md
in this directory says what each runs and why, and what every metric means.

With ``--trace 0`` the run measures for at least ``--seconds`` of operation
time, at least MIN_OPS operations and a whole cycle of the workload's mix,
and reports the end-to-end metrics. With ``--trace 1`` it runs a fixed
number of cycles, each operation once traced and once untraced, and reports
per-layer metrics from the spans.

Output: one JSON line ``{"report": ...}`` with provenance, sample counts,
the output digest and failures, then the result line
``{"correct", "attempted", "failed", "metrics"}``. The run reads and writes
only under the repository root (scratch files go to ``.perfbench_tmp/``,
span files to ``.perfbench_out/``) and exits 2 without a result when the
``src/modscramble`` sources are missing.
"""

import argparse
import contextlib
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

WORKLOADS = ("bulk-images", "fresh-keys", "research")

#: p90 of a run then has at least ten samples beyond it.
MIN_OPS = 100
#: The digest covers the outputs of the first MIN_OPS operations, which
#: every run completes, so it repeats exactly for a given seed.
DIGEST_OPS = MIN_OPS
#: Fresh interpreters timed for set-up; setup_s is their median.
SETUP_PROBES = 5
#: Whole cycles of a traced run, fixed so that its counts repeat exactly.
TRACE_CYCLES = {"bulk-images": 4, "fresh-keys": 1, "research": 2}
#: Stop measuring after this much wall time even if MIN_OPS is not reached,
#: so that a run on a slow machine still ends within three minutes.
WALL_CAP_S = 140.0

#: Largest single permutation pass of each workload: (side, channels).
LARGEST_PASS = {"bulk-images": (2048, 3), "fresh-keys": (1031, 1), "research": (1024, 1)}

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

END_TO_END = (
    ("ops_s", "1/s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("mpix_s", "Mpix/s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)

ATTACK_KINDS = ("salt-pepper", "gaussian", "speckle", "crop", "compress")

PER_LAYER = (
    ("scramble.scramble.self_ms", "ms"),
    ("scramble.unscramble.self_ms", "ms"),
    ("scramble.pixels_moved", "count"),
    ("scramble.ImageGrid.self_ms", "ms"),
    ("scramble.ImageGrid.bytes", "bytes"),
    ("pnm.read_pnm.ms", "ms"),
    ("pnm.write_pnm.ms", "ms"),
    ("pnm.bytes", "bytes"),
    ("scramble.period.self_ms", "ms"),
    ("scramble.period.calls", "count"),
    ("scramble.period.calls_per_unscramble", "ratio"),
    ("scramble.plan_unscramble.self_ms", "ms"),
    ("maps.mat_mul_mod.calls", "count"),
    ("maps.power_mod.ms", "ms"),
    ("maps.inverse_mod.ms", "ms"),
    ("maps.validate.ms", "ms"),
    ("keyfile.loads_key.ms", "ms"),
    ("keyfile.loads_key.calls", "count"),
    ("analysis.equivalence_classes.self_ms", "ms"),
    ("analysis.orbit_signature.calls", "count"),
    ("analysis.orbit_states", "count"),
    ("analysis.period_survey.self_ms", "ms"),
    ("analysis.enumerate_unimodular.self_ms", "ms"),
    ("sequences.term.calls", "count"),
    *((f"attacks.apply_attack.{kind}.self_ms", "ms") for kind in ATTACK_KINDS),
    ("attacks.recovery_experiment.self_ms", "ms"),
    ("attacks.mse.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


# ---------------------------------------------------------------- provenance


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _llc_bytes():
    """Size of the highest-level cache of cpu0, or None where sysfs does not say."""
    best = (0, None)
    for index in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*"):
        try:
            level = int((index / "level").read_text())
            size = (index / "size").read_text().strip()
        except (OSError, ValueError):
            continue
        scale = {"K": 1024, "M": 1024**2}.get(size[-1:], 1)
        if level > best[0]:
            best = (level, int(size.rstrip("KM")) * scale)
    return best[1]


def _blas_name(np):
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):  # numpy < 1.26 has no dict mode
        return None


def provenance(np):
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": _blas_name(np),
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": _llc_bytes(),
        "platform": platform.platform(),
    }


def working_set(workload, llc_bytes):
    """Computed bytes of the largest permutation pass: two int64 index arrays,
    input and output pixels, input and output PNM streams."""
    side, channels = LARGEST_PASS[workload]
    total = 2 * 8 * side * side + 4 * side * side * channels
    return {
        "bytes": total,
        "llc_bytes": llc_bytes,
        "over_llc": round(total / llc_bytes, 3) if llc_bytes else None,
        "basis": f"computed for N={side}, {channels} channel(s)",
    }


# ---------------------------------------------------------------- running


def _setup_probe(workload, warmup_dir):
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(warmup_dir)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def _run_op(op):
    """(output or raised exception, elapsed ns) of one timed operation."""
    start = time.perf_counter_ns()
    try:
        out = op.run()
    except Exception as exc:  # a failing operation is counted, not fatal
        out = exc
    return out, time.perf_counter_ns() - start


def _verify(op, out):
    """(failure message or None, digest chunks)."""
    if isinstance(out, Exception):
        return f"{op.label}: raised {out!r}", []
    try:
        return None, op.check(out)
    except Exception as exc:  # CheckError, or output too malformed to check
        return f"{op.label}: {exc}", []


def _quantile(values, q):
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(ops, seconds, cycle):
    """Closed loop until `seconds` of operation time and MIN_OPS are done, on a
    whole cycle of the workload's operations.

    Throughput is the median over cycles, each cycle being the same mix of
    work, so one slow operation moves it no more than it moves a median.
    """
    latencies, failures, by_label, cycles = [], [], {}, []
    digest = hashlib.sha256()
    busy_ns = cycle_ns = cycle_ok = cycle_pixels = 0
    wall_start = time.perf_counter()
    while (
        busy_ns < seconds * 1e9 or len(latencies) < MIN_OPS or len(latencies) % cycle
    ) and time.perf_counter() - wall_start < WALL_CAP_S:
        op = next(ops)
        out, elapsed = _run_op(op)
        failure, chunks = _verify(op, out)
        latencies.append(elapsed / 1e6)
        by_label.setdefault(op.label, []).append(elapsed / 1e6)
        busy_ns += elapsed
        cycle_ns += elapsed
        if failure:
            failures.append(failure)
        else:
            cycle_ok += 1
            cycle_pixels += op.pixels
        if len(latencies) <= DIGEST_OPS:
            for chunk in chunks:
                digest.update(len(chunk).to_bytes(8, "little") + chunk)
        if len(latencies) % cycle == 0:
            cycles.append((cycle_ok, cycle_pixels, cycle_ns / 1e9))
            cycle_ns = cycle_ok = cycle_pixels = 0
    metrics = {
        "ops_s": statistics.median(ok / s for ok, _, s in cycles),
        "op_ms_p50": _quantile(latencies, 50),
        "op_ms_p90": _quantile(latencies, 90),
        "mpix_s": statistics.median(px / 1e6 / s for _, px, s in cycles),
    }
    detail = {
        "samples": len(latencies),
        "cycles": len(cycles),
        "measured_s": busy_ns / 1e9,
        "wall_s": time.perf_counter() - wall_start,
        "op_ms_p50_by_label": {k: [len(v), statistics.median(v)] for k, v in by_label.items()},
        "digest": digest.hexdigest(),
        "digest_ops": min(len(latencies), DIGEST_OPS),
    }
    return metrics, failures, len(latencies), detail


def trace(ops, count, tracer):
    """Each operation runs traced, then untraced; both outputs must pass and agree."""
    failures = []
    traced_ns = untraced_ns = 0
    op_ns = []
    digest = hashlib.sha256()
    for index in range(count):
        op = next(ops)
        tracer.op = index
        with tracer:
            traced, elapsed = _run_op(op)
        traced_ns += elapsed
        op_ns.append(elapsed)
        untraced, elapsed = _run_op(op)
        untraced_ns += elapsed
        failure, chunks = _verify(op, traced)
        failure_u, chunks_u = _verify(op, untraced)
        failure = failure or failure_u
        if not failure and chunks != chunks_u:
            failure = f"{op.label}: traced and untraced outputs differ"
        if failure:
            failures.append(failure)
        for chunk in chunks:
            digest.update(len(chunk).to_bytes(8, "little") + chunk)
    overhead = traced_ns / untraced_ns
    return failures, op_ns, overhead, digest.hexdigest()


def layer_metrics(tracer, overhead):
    totals = tracer.totals()

    def value(name):
        if name == "trace.overhead_ratio":
            return overhead
        if name == "scramble.period.calls_per_unscramble":
            unscrambles = totals["scramble.unscramble"][0]
            return totals["scramble.period"][0] / unscrambles if unscrambles else 0.0
        base, _, kind = name.rpartition(".")
        if kind == "self_ms":
            return totals[base][2] / 1e6
        if kind == "ms":
            return totals[base][1] / 1e6
        if kind == "calls":
            return tracer.calls.get(base, 0) + totals[base][0]
        return tracer.amounts[name]

    return {name: {"value": value(name), "unit": unit} for name, unit in PER_LAYER}


def trace_breakdown(tracer, op_ns):
    """Where traced operation time went: self-time share per module, and the
    largest self-time item over the slowest tenth of the operations."""
    total = sum(op_ns)
    by_module = Counter()
    for name, (_, _, own) in tracer.totals().items():
        by_module[name.split(".", 1)[0]] += own
    slowest = sorted(range(len(op_ns)), key=op_ns.__getitem__)[-max(1, len(op_ns) // 10):]
    decile = tracer.self_ns_by_op(slowest)
    decile_total = sum(op_ns[i] for i in slowest)
    top = max(decile, key=decile.get) if decile else None
    return {
        "self_share_by_module": {m: round(ns / total, 4) for m, ns in by_module.most_common()},
        "slowest_decile": {
            "ops": len(slowest),
            "top_self_item": top,
            "top_self_share": round(decile[top] / decile_total, 4) if top else None,
            "items": {k: round(v / decile_total, 4)
                      for k, v in sorted(decile.items(), key=lambda kv: -kv[1])[:5]},
        },
    }


def run(args, tmp):
    import numpy as np
    import workloads

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "provenance": provenance(np)}
    report["working_set"] = working_set(args.workload, report["provenance"]["llc_bytes"])
    warmup_dir = tmp / "warmup"
    workloads.write_warmup(args.workload, warmup_dir)
    if not args.trace:
        probes = [_setup_probe(args.workload, warmup_dir) for _ in range(SETUP_PROBES)]
        report["setup_probes"] = probes
    workloads.load_warmup(args.workload, warmup_dir)()  # untimed warm-up
    ops = workloads.operations(args.workload, args.seed, tmp / "run")

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        count = TRACE_CYCLES[args.workload] * workloads.CYCLE[args.workload]
        failures, op_ns, overhead, digest = trace(ops, count, tracer)
        attempted = len(op_ns)
        metrics = layer_metrics(tracer, overhead)
        spans_file = ROOT / ".perfbench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_file)
        report.update(trace_breakdown(tracer, op_ns))
        report.update(samples=attempted, digest=digest, spans=len(tracer.spans),
                      spans_file=str(spans_file.relative_to(ROOT)))
    else:
        values, failures, attempted, detail = measure(
            ops, args.seconds, workloads.CYCLE[args.workload])
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        values["setup_s"] = statistics.median(p["import_s"] + p["warmup_s"] for p in probes)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        report.update(detail)

    report.update(attempted=attempted, failed=len(failures),
                  failed_ratio=len(failures) / attempted, failures=failures[:5])
    return report, {"correct": not failures, "attempted": attempted,
                    "failed": len(failures), "metrics": metrics}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "modscramble" / "__init__.py").is_file():
        print(f"error: modscramble sources not found under {SRC}", file=sys.stderr)
        return 2
    # One process, one client: BLAS starts no worker threads either.
    for var in BLAS_THREAD_VARS:
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(SRC))

    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(dir=scratch))
    try:
        report, result = run(args, tmp)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            scratch.rmdir()
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
