#!/usr/bin/env python3
"""Repeated runs of the benchmark, summarised.

Run from the repository root:

  python3 perfbench/spread.py spread --workload tcp-cluster --seeds 1-10
      Runs the workload once per seed with --trace 0 and prints, for every
      end-to-end metric, the median, the quartiles and the spread (distance
      between the quartiles as a share of the median), against the metric's
      bound in BENCHMARK.json. --save FILE keeps the raw results as JSON;
      --against FILE also checks that no median got worse than the saved
      set's by more than the bound. Exits 1 if a spread other than
      setup_s's, or a median, is outside its bound.

  python3 perfbench/spread.py layers --seed 42 > perfbench/LAYERS.md
      Runs every workload in --pairs (default 3) pairs of one untraced and
      one traced run and prints each workload's per-layer table (medians
      over the traced runs), with the tracing overhead (the traced runs'
      median wall_s and commit_p50_ms over the untraced runs', minus one).
"""
import argparse
import json
import statistics
import subprocess
import sys


def spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def run(workload, seed, seconds, trace):
    cmd = spec()["command"] + ["--workload", workload, "--seed", str(seed),
                               "--seconds", str(seconds), "--trace", str(trace)]
    p = subprocess.run(cmd, capture_output=True, text=True)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} exited {p.returncode}:\n{p.stdout}\n{p.stderr}")
    return json.loads(lines[-1]), lines[:-1]


def seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def cmd_spread(a):
    sp = spec()
    seconds = a.seconds or sp["run_seconds"]
    results = []
    for s in seeds(a.seeds):
        res, lines = run(a.workload, s, seconds, 0)
        results.append(res)
        vals = " ".join(f"{k}={v['value']:.4g}" for k, v in sorted(res["metrics"].items()))
        steal = next((l.split()[1] for l in lines if l.startswith("machine:")), "?")
        print(f"seed {s}: correct={res['correct']} failed={res['failed']}/{res['attempted']} steal={steal} {vals}",
              flush=True)
    if a.save:
        with open(a.save, "w") as f:
            json.dump(results, f)
    before = None
    if a.against:
        with open(a.against) as f:
            before = json.load(f)
    bad = False
    print(f"{'metric':18} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for m in sp["end_to_end"]:
        vs = [r["metrics"][m["name"]]["value"] for r in results]
        q1, med, q3 = statistics.quantiles(vs, n=4)
        spread = (q3 - q1) / med if med else float("inf")
        flag = ""
        if m["name"] != "setup_s" and spread > m["bound"]:
            flag, bad = " SPREAD", True
        if before:
            old = statistics.median(r["metrics"][m["name"]]["value"] for r in before)
            worse = (med - old) / old if m["better"] == "lower" else (old - med) / old
            flag += f" vs-saved {worse:+.3f}"
            if worse > m["bound"]:
                flag, bad = flag + " WORSE", True
        print(f"{m['name']:18} {med:12.5g} {q1:12.5g} {q3:12.5g} {spread:8.3f} {m['bound']:6.2f}{flag}")
    return 1 if bad else 0


def cmd_layers(a):
    sp = spec()
    seconds = a.seconds or sp["run_seconds"]
    print("# Per-layer tables\n")
    print(f"Per workload, {a.pairs} pairs of one untraced (`--trace 0`) and one traced (`--trace 1`) run, "
          f"seed {a.seed}, {seconds} s budget, the order alternating between pairs. Each per-layer value is "
          f"the median over the traced runs. Regenerate with "
          f"`python3 perfbench/spread.py layers --seed {a.seed} --pairs {a.pairs}`.\n")
    print("The tracing overhead is the traced runs' median over the untraced runs' median, minus one, for\n"
          "`wall_s` and `commit_p50_ms`; it carries the machine's run-to-run noise (see NOTES.md). The CPU\n"
          "profile samples at 100 Hz.\n")
    for w in sp["workloads"]:
        name = w["name"]
        plain, traced, ctx, steal = [], [], "", []
        for i in range(a.pairs):
            for trace in ((0, 1) if i % 2 == 0 else (1, 0)):
                res, lines = run(name, a.seed, seconds, trace)
                (traced if trace else plain).append(res["metrics"])
                ctx = next((l for l in lines if l.startswith("context:")), ctx)
                steal += [l.split()[1] for l in lines if l.startswith("machine:")]
        med = {k: statistics.median(m[k]["value"] for m in traced) for k in traced[0]}
        units = {k: v["unit"] for k, v in traced[0].items()}
        print(f"## {name}\n")
        print(f"{ctx}\n\nCPU time stolen by the hypervisor, per run: {' '.join(steal)}\n")
        for metric, key in (("wall_s", "bench.traced_wall_s"), ("commit_p50_ms", "bench.traced_commit_p50_ms")):
            off = [m[metric]["value"] for m in plain]
            on = [m[key]["value"] for m in traced]
            overhead = statistics.median(on) / statistics.median(off) - 1
            print(f"Tracing overhead on {metric}: traced {' '.join(f'{v:.4g}' for v in on)}, "
                  f"untraced {' '.join(f'{v:.4g}' for v in off)} ({overhead:+.1%}).\n")
        shares = sorted(((k[:-len(".cpu_share")], v) for k, v in med.items()
                         if k.endswith(".cpu_share") and v > 0), key=lambda kv: -kv[1])
        print("| module | CPU share |\n|---|---|")
        for k, v in shares:
            print(f"| {k} | {v:.1%} |")
        print("\n| metric | value | unit |\n|---|---|---|")
        for k in sorted(med):
            if not k.endswith(".cpu_share"):
                print(f"| {k} | {med[k]:.6g} | {units[k]} |")
        print()
    return 0


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)
    s = sub.add_parser("spread")
    s.add_argument("--workload", required=True)
    s.add_argument("--seeds", default="1-10")
    s.add_argument("--seconds", type=int)
    s.add_argument("--save")
    s.add_argument("--against")
    l = sub.add_parser("layers")
    l.add_argument("--seed", type=int, default=42)
    l.add_argument("--seconds", type=int)
    l.add_argument("--pairs", type=int, default=3)
    a = ap.parse_args()
    return cmd_spread(a) if a.cmd == "spread" else cmd_layers(a)


if __name__ == "__main__":
    sys.exit(main())
