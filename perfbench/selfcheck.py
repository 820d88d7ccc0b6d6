"""Tiny-size self-check of the benchmark itself.

    python3 perfbench/selfcheck.py

Runs every workload at the TINY sizes of workloads.py, untraced and traced,
through the same code as run.py, and checks that

* every untraced result is correct and carries every end_to_end metric of
  BENCHMARK.json by name and unit, so every gate ran and passed;
* every traced result is correct and carries every per_layer metric; no
  span has a negative self time, and the layer spans and RHS calls cover
  at least COVERAGE of the traced workload, so the spans account for where
  the time goes.  (Layer self times plus systems.rhs_s never exceed
  trace.wall_s: that holds by construction of the self times, so it is not
  checked.)
* a forced gate failure (long_nl with a bounded-attractor radius below |y0|)
  is counted: failed == attempted, so fail_ratio rises to 1, and correct is
  false.

RHS counts and the output-digest match are printed, not asserted: a batching
change may legitimately move the counts, and digests depend on the numpy and
BLAS build.  Takes well under a minute; exits 1 on the first broken check.
"""

import dataclasses
import sys

import run
import workloads

SEED = 7
COVERAGE = 0.9


class CheckFailed(Exception):
    pass


def check(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)
    print(f"  ok  {what}")


def check_names(result: dict, wanted: list) -> None:
    got = result["metrics"]
    check(list(got) == [m["name"] for m in wanted]
          and all(got[m["name"]]["unit"] == m["unit"] for m in wanted),
          f"{len(wanted)} metrics by name and unit")


def main() -> int:
    bench = run.load_benchmark()
    try:
        for name, spec in workloads.TINY.items():
            print(f"{name} (tiny) untraced")
            result, _ = run.measure(spec, SEED, 0.1, trace=False)
            check(result["correct"] and result["failed"] == 0,
                  f"gates passed on {result['attempted']} repeats")
            check_names(result, bench["end_to_end"])

            print(f"{name} (tiny) traced")
            result, record = run.measure(spec, SEED, 0.1, trace=True)
            check(result["correct"] and result["failed"] == 0,
                  f"traced and default-seed gates passed ({result['attempted']} runs)")
            check_names(result, bench["per_layer"])
            report = record["report"]
            check(report["min_span_self_s"] >= 0.0,
                  f"smallest span self time {report['min_span_self_s']:.3g} s >= 0")
            check(report["coverage"] >= COVERAGE,
                  f"spans cover {report['coverage']:.4f} >= {COVERAGE} of the workload")
            for key, c in report["rhs_counts"].items():
                print(f"  --  {key} = {c['value']}, formula {c['formula']} = {c['formula_value']}")
            match = result["metrics"]["cli.output_sha256_match"]["value"]
            print(f"  --  cli.output_sha256_match = {match}")

        print("long_nl (tiny) with a forced gate failure")
        broken = dataclasses.replace(workloads.TINY["long_nl"], radius=1e-3)
        result, record = run.measure(broken, SEED, 0.1, trace=False)
        check(not result["correct"] and result["failed"] == result["attempted"] >= 1,
              f"fail_ratio {result['failed']}/{result['attempted']}: {record['failures'][0]}")
    except CheckFailed as exc:
        print(f"SELF-CHECK FAILED: {exc}")
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
