"""Run bench/run.py once per seed and workload; record each metric's spread.

    python3 bench/spread.py --seeds 1-10 --seconds 25 --out bench/results/spread.json

For every workload and metric the output holds the per-run values, the
quartiles from ``statistics.quantiles(values, n=4)``, the median and the
interquartile distance as a share of the median. Runs go one at a time.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("slot_stream", "sweep_full_load", "sweep_qpsk_bound", "modmap_pdfcheck")


def seed_list(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default=",".join(WORKLOADS))
    p.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    p.add_argument("--seconds", type=int, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=os.path.join(BENCH_DIR, "results", "spread.json"))
    args = p.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "workloads": {}}
    for wl in args.workloads.split(","):
        values, units, failed = {}, {}, 0
        for seed in args.seeds:
            cmd = [sys.executable, os.path.join(BENCH_DIR, "run.py"), "--workload", wl,
                   "--seed", str(seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, timeout=900,
                                  cwd=os.path.dirname(BENCH_DIR))
            last = json.loads(done.stdout.strip().splitlines()[-1])
            failed += last["failed"]
            if done.returncode != 0:
                print(done.stderr, file=sys.stderr)
            for name, m in last["metrics"].items():
                values.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            rows[name] = {"unit": units[name], "values": vals, "quartiles": [q1, q2, q3],
                          "median": med, "iqr_over_median": (q3 - q1) / med if med else None}
            print(f"{wl:<18} {name:<40} median {med:12.6g} {units[name]:<10} "
                  f"iqr/median {rows[name]['iqr_over_median'] or 0:.4f}", flush=True)
        report["workloads"][wl] = {"failed": failed, "metrics": rows}
    os.makedirs(os.path.dirname(os.path.abspath(args.out)), exist_ok=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)


if __name__ == "__main__":
    main()
