"""sfode benchmark: one workload, driven through the user-facing CLI.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it imports the package from ``src/``
and writes only under ``.bench_build/perfbench/``.  The workloads are in
workloads.py; the CLI seed is --seed.

--trace 0  Repeats the workload's CLI command, each time in a fresh Python
           process that calls ``sfode.cli.main(argv)``, until --seconds is
           used up (at least MIN_REPS times).  Every output is gated, and
           all repeats of one seed must write identical bytes.  Reports the
           median of each end-to-end metric over the repeats, setup_s too.
--trace 1  One traced run (traced.py) for the per-layer metrics, then one CLI
           run at the default seed whose output sha256 is compared with the
           digest captured at the parent commit (digests.json).  --seconds
           is not used: the traced run does its fixed sequence once.

Every child runs with one BLAS thread, so pool workers x BLAS threads stays
within nproc.  Human-readable lines come first; the last stdout line is the
JSON result {"correct", "attempted", "failed", "metrics"}, with the metric
names and units of BENCHMARK.json.  The full record, machine included, goes
to .bench_build/perfbench/result_<workload>_<size>_s<seed>_t<trace>.json.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build" / "perfbench"
MIN_REPS = 3
CHILD_TIMEOUT_S = 160
BLAS_THREADS = 1


class BenchError(Exception):
    """The checkout cannot be benchmarked (missing sources, bad child)."""


def _child_env() -> dict:
    env = dict(os.environ)
    # the package comes from SRC only; byte-code is cached as for any user,
    # so set-up after the warm-up probe does not include compiling sfode
    for name in ("PYTHONPATH", "PYTHONDONTWRITEBYTECODE", "PYTHONPYCACHEPREFIX"):
        env.pop(name, None)
    env.update(
        OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
        OMP_NUM_THREADS=str(BLAS_THREADS),
        MKL_NUM_THREADS=str(BLAS_THREADS),
    )
    return env


def _run_child(script: str, args: list, stamp_start: bool = False) -> dict:
    """Run a Python child in its own session; its last stdout line is JSON.

    With stamp_start the child's first argument is time.monotonic_ns() taken
    just before it starts.  On timeout the whole process group is killed and
    reaped.
    """
    argv = [sys.executable, str(HERE / script)]
    if stamp_start:
        argv.append(str(time.monotonic_ns()))
    proc = subprocess.Popen(
        argv + [str(a) for a in args], cwd=ROOT, env=_child_env(), text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"{script} timed out after {CHILD_TIMEOUT_S} s") from None
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = " | ".join(err.strip().splitlines()[-3:])
        raise BenchError(f"{script} exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def cli_rep(spec, seed: int) -> dict:
    """One CLI run in a fresh process, gated; 'failure' is None when correct."""
    out = BUILD / f"{spec.name}_{spec.label}{spec.suffix}"
    if out.exists():
        out.unlink()
    rec = _run_child("cli_child.py", [SRC, *spec.argv(seed, str(out), ROOT)], stamp_start=True)
    rec["sha256"] = _sha256(out) if out.exists() else None
    if rec["exit_code"] != 0:
        rec["failure"] = f"exit code {rec['exit_code']} {rec.get('error', '')}".rstrip()
        return rec
    try:
        rec["failure"] = spec.gate(out)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        rec["failure"] = f"unreadable output: {exc!r}"
    return rec


def probe() -> dict:
    """A process that only imports sfode.cli: its set-up time and build info."""
    return _run_child("cli_child.py", [SRC], stamp_start=True)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def machine_record(build: dict, seed: int, load_before) -> dict:
    workers = os.cpu_count() or 1  # the CLI's default worker count
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "loadavg_before": list(load_before),
        "loadavg_after": list(os.getloadavg()),
        "python": build.get("python"),
        "numpy": build.get("numpy"),
        "blas": build.get("blas"),
        "blas_threads": BLAS_THREADS,
        "workers": workers,
        "workers_x_blas_threads": workers * BLAS_THREADS,
        "seed": seed,
    }


def quartiles(values: list) -> dict:
    if len(values) == 1:
        return {"median": values[0], "q1": values[0], "q3": values[0], "n": 1}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def measure_untraced(spec, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + seconds
    reps, failures = [], []
    last = 0.0
    while len(reps) < MIN_REPS or time.monotonic() + last <= deadline:
        started = time.monotonic()
        rep = cli_rep(spec, seed)
        if reps and rep["failure"] is None and rep["sha256"] != reps[0]["sha256"]:
            rep["failure"] = "output bytes differ from the first repeat of this seed"
        reps.append(rep)
        if rep["failure"]:
            failures.append(rep["failure"])
        last = time.monotonic() - started
    steps = spec.node_updates()
    samples = {
        "wall_s": [r["wall_s"] for r in reps],
        "steps_per_s": [steps / r["wall_s"] for r in reps],
        "cpu_s": [r["cpu_s"] for r in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r in reps],
        "setup_s": [r["setup_s"] for r in reps],
    }
    summary = {k: quartiles(v) for k, v in samples.items()}
    return {
        "attempted": len(reps),
        "failures": failures,
        "values": {k: s["median"] for k, s in summary.items()},
        "summary": summary,
        "node_updates": steps,
        "reps": reps,
    }


def measure_traced(spec, seed: int) -> dict:
    traced = _run_child("traced.py", [SRC, workloads.to_json(spec), seed, BUILD])
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    rep = cli_rep(spec, digests["seed"])
    expected = digests["sha256"].get(spec.name, {}).get(spec.label)
    values = dict(traced["metrics"])
    values["cli.output_sha256_match"] = 1.0 if rep["sha256"] == expected else 0.0
    failures = list(traced["failures"])
    if rep["failure"]:
        failures.append(f"default-seed CLI run: {rep['failure']}")
    return {
        "attempted": traced["attempted"] + 1,
        "failures": failures,
        "values": values,
        "report": traced["report"],
        "default_seed_sha256": rep["sha256"],
        "expected_sha256": expected,
    }


def load_benchmark() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        raise BenchError(f"{path} is missing")
    return json.loads(path.read_text(encoding="utf-8"))


def check_checkout(spec) -> None:
    if not (SRC / "sfode" / "cli.py").is_file():
        raise BenchError(f"no sfode sources under {SRC}")
    config = getattr(spec, "config", None)
    if config and not (ROOT / config).is_file():
        raise BenchError(f"workload config {ROOT / config} is missing")


def measure(spec, seed: int, seconds: float, trace: bool) -> tuple:
    """Run one workload; return (result line dict, full record dict)."""
    bench = load_benchmark()
    check_checkout(spec)
    BUILD.mkdir(parents=True, exist_ok=True)
    load_before = os.getloadavg()
    build = probe()  # untimed warm-up: byte-compiles the package, fills the page cache
    record = measure_traced(spec, seed) if trace else measure_untraced(spec, seed, seconds)
    record["machine"] = machine_record(build, seed, load_before)
    record["workload"] = {"name": spec.name, **spec.__dict__}
    wanted = bench["per_layer" if trace else "end_to_end"]
    missing = [m["name"] for m in wanted if m["name"] not in record["values"]]
    if missing:
        raise BenchError(f"metrics not measured: {', '.join(missing)}")
    result = {
        "correct": not record["failures"],
        "attempted": record["attempted"],
        "failed": len(record["failures"]),
        "metrics": {
            m["name"]: {"value": record["values"][m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }
    name = f"result_{spec.name}_{spec.label}_s{seed}_t{int(trace)}.json"
    (BUILD / name).write_text(json.dumps({"result": result, **record}, indent=1) + "\n",
                              encoding="utf-8")
    return result, record


def print_report(result: dict, record: dict) -> None:
    w = record["workload"]
    print(f"workload {w['name']} ({w['label']})  seed {record['machine']['seed']}  "
          f"workers {record['machine']['workers']}  blas threads {BLAS_THREADS}")
    for name, s in record.get("summary", {}).items():
        print(f"  {name:<14} median {s['median']:.6g}  q1 {s['q1']:.6g}  "
              f"q3 {s['q3']:.6g}  n={s['n']}")
    for name, m in result["metrics"].items():
        if name not in record.get("summary", {}):
            print(f"  {name:<30} {m['value']:.6g} {m['unit']}")
    for name, c in record.get("report", {}).get("rhs_counts", {}).items():
        print(f"  {name}: {c['value']} (formula {c['formula']} = {c['formula_value']}, "
              f"N={c['N']} M={c['M']} K={c['K']})")
    print(f"  fail_ratio {result['failed']}/{result['attempted']} = "
          f"{result['failed'] / result['attempted']:.6g}")
    for reason in record["failures"]:
        print(f"  FAILED: {reason}")
    print("machine " + json.dumps(record["machine"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.FULL))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be a 64-bit unsigned integer")
    try:
        result, record = measure(workloads.FULL[args.workload], args.seed,
                                 args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print_report(result, record)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
