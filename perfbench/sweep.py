"""Every workload, repeated with fresh seeds, interleaved; spread per metric.

    python3 perfbench/sweep.py [--repeats 10] [--seed0 101]

Repeat r runs every workload of BENCHMARK.json once, each as its own run.py
process with seed seed0 + r and run_seconds, rotating the workload order
every repeat, so drift of a shared machine spreads over all workloads
instead of landing on one.  Prints, per workload and end-to-end metric, the
median and quartiles of the per-run values, the spread (q3 - q1) / median
next to the metric's bound, and fail_ratio = failed / attempted over all
runs.  The table is appended to the sets of perfbench/spread.json, the
record of the spread observed when the bounds were settled.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time

import run


def main() -> int:
    bench = run.load_benchmark()
    names = [w["name"] for w in bench["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--repeats", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=101)
    args = parser.parse_args()

    runs = {w: [] for w in names}
    for r in range(args.repeats):
        for w in names[r % len(names):] + names[:r % len(names)]:
            cmd = [sys.executable, str(run.HERE / "run.py"), "--workload", w,
                   "--seed", str(args.seed0 + r), "--seconds", str(bench["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                                  timeout=300)
            if proc.returncode != 0:
                print(f"{w} seed {args.seed0 + r}: exit {proc.returncode}\n{proc.stderr}")
                return 1
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs[w].append(result)
            print(f"repeat {r} {w}: " + "  ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)

    table = {}
    print(f"\n{'workload':<16}{'metric':<13}{'median':>12}{'q1':>12}{'q3':>12}"
          f"{'spread':>9}{'bound':>7}")
    for w, results in runs.items():
        table[w] = {}
        for m in bench["end_to_end"]:
            values = [res["metrics"][m["name"]]["value"] for res in results]
            q1, med, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / med
            table[w][m["name"]] = {"median": med, "q1": q1, "q3": q3, "spread": spread,
                                   "bound": m["bound"], "unit": m["unit"], "values": values}
            print(f"{w:<16}{m['name']:<13}{med:>12.5g}{q1:>12.5g}{q3:>12.5g}"
                  f"{spread:>9.4f}{m['bound']:>7}")
        failed = sum(res["failed"] for res in results)
        attempted = sum(res["attempted"] for res in results)
        table[w]["fail_ratio"] = failed / attempted
        print(f"{w:<16}{'fail_ratio':<13}{failed / attempted:>12.5g}  ({failed}/{attempted})")
    out = run.HERE / "spread.json"
    record = json.loads(out.read_text(encoding="utf-8"))
    record["sets"].append({
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "repeats": args.repeats, "seed0": args.seed0,
        "run_seconds": bench["run_seconds"],
        "sizes": {w: run.workloads.FULL[w].__dict__ for w in names}, "table": table,
    })
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(f"\nappended to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
