#!/usr/bin/env python3
"""Collect, check and compare result sets of the repo benchmark.

Run from the repo root (where BENCHMARK.json is):

  python3 benchmark/compare.py collect OUT.jsonl [--seeds 1-10] [--trace 0|1] [--workloads A,B]
      Runs BENCHMARK.json's command once per workload and seed, as the driver
      does, checks each result line against the contract, and appends one
      record per run to OUT.jsonl (the format `results.jsonl` has too).
  python3 benchmark/compare.py spread FILE.jsonl
      Per workload and end-to-end metric: median, and the distance between the
      quartiles as a share of the median, against the metric's bound.
  python3 benchmark/compare.py diff A.jsonl B.jsonl
      Per metric and workload: both medians, how much worse B is, and
      pass/fail against the bound; plus whether every sim_digest agrees.
  python3 benchmark/compare.py check
      BENCHMARK.json equals what the program describes and keeps the limits.

Bounds, directions and the command are read from BENCHMARK.json only.
"""

import json
import re
import statistics
import subprocess
import sys
import time


def contract():
    with open("BENCHMARK.json") as f:
        return json.load(f)


def records(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def option(args, name, default):
    if name in args:
        i = args.index(name)
        value = args[i + 1]
        del args[i : i + 2]
        return value
    return default


def check_result(spec, trace, line):
    """Raises ValueError unless `line` is a result the contract accepts."""
    result = json.loads(line)
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        raise ValueError(f"result keys are {sorted(result)}")
    declared = spec["per_layer"] if trace else spec["end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    got = {name: m.get("unit") for name, m in result["metrics"].items()}
    if got != want:
        odd = sorted(set(got.items()) ^ set(want.items()))
        raise ValueError(f"metrics differ from BENCHMARK.json: {odd[:6]}")
    if result["correct"] is not True or result["failed"] != 0 or result["attempted"] < 1:
        raise ValueError(f"correct={result['correct']} failed={result['failed']}")
    if not trace:
        zero = [n for n, m in result["metrics"].items() if m["value"] == 0]
        if zero:
            raise ValueError(f"end-to-end metrics read 0: {zero}")
    return result


def collect(args):
    spec = contract()
    seeds = parse_seeds(option(args, "--seeds", "1-10"))
    trace = int(option(args, "--trace", "0"))
    names = [w["name"] for w in spec["workloads"]]
    names = option(args, "--workloads", ",".join(names)).split(",")
    (out,) = args
    began = time.time()
    for seed in seeds:
        for name in names:
            cmd = spec["command"] + ["--workload", name, "--seed", str(seed)]
            cmd += ["--seconds", str(spec["run_seconds"]), "--trace", str(trace)]
            t0 = time.time()
            run = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
            took = time.time() - t0
            lines = run.stdout.strip().splitlines()
            if run.returncode != 0 or not lines:
                sys.exit(f"{' '.join(cmd)}: exit {run.returncode}\n{run.stdout[-2000:]}")
            try:
                result = check_result(spec, trace, lines[-1])
            except ValueError as e:
                sys.exit(f"{name} seed {seed}: {e}")
            digest = [l.split()[1] for l in lines if l.startswith("sim_digest ")]
            record = {
                "workload": name,
                "seed": seed,
                "trace": trace,
                "sim_digest": digest[0] if digest else "",
                "wall_s": round(took, 2),
                "result": result,
            }
            with open(out, "a") as f:
                f.write(json.dumps(record) + "\n")
            print(f"{name:14} seed {seed:<4} trace {trace}  {took:5.1f} s  ok", flush=True)
    runs = len(seeds) * len(names)
    print(f"{runs} runs in {time.time() - began:.0f} s -> {out}")


def values(recs, workload, trace, metric):
    return [
        r["result"]["metrics"][metric]["value"]
        for r in recs
        if r["workload"] == workload and r["trace"] == trace and metric in r["result"]["metrics"]
    ]


def spread(args):
    spec = contract()
    (path,) = args
    recs = records(path)
    wide = 0
    print(f"{'workload':14} {'metric':16} {'n':>3} {'median':>12} {'iqr/median':>11} {'bound':>6}")
    for w in (w["name"] for w in spec["workloads"]):
        for m in spec["end_to_end"]:
            vals = values(recs, w, 0, m["name"])
            if len(vals) < 2:
                continue
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            share = (q3 - q1) / med
            if m["name"] == "setup_s":
                verdict = "not gated"
            elif share < m["bound"] / 3:
                verdict = "steady (< bound/3)"
            elif share <= m["bound"]:
                verdict = "within bound"
            else:
                verdict = "TOO WIDE"
                wide += 1
            print(
                f"{w:14} {m['name']:16} {len(vals):3} {med:12.5g} {share:11.2%} "
                f"{m['bound']:6.0%}  {verdict}"
            )
    sys.exit(1 if wide else 0)


def diff(args):
    spec = contract()
    a, b = (records(p) for p in args)
    failed = 0
    print(
        f"{'workload':14} {'metric':40} {'A median':>12} {'B median':>12} "
        f"{'B worse by':>10} {'bound':>6}"
    )
    metrics = [(m, 0) for m in spec["end_to_end"]] + [(m, 1) for m in spec["per_layer"]]
    for w in (w["name"] for w in spec["workloads"]):
        for m, trace in metrics:
            va, vb = values(a, w, trace, m["name"]), values(b, w, trace, m["name"])
            if not va or not vb:
                continue
            ma, mb = statistics.median(va), statistics.median(vb)
            if ma == 0 and mb == 0:
                continue  # a layer this workload does not run
            worse = (mb - ma) / abs(ma) if ma else float("inf")
            if m["better"] == "higher":
                worse = -worse
            bound = m.get("bound")
            if bound is None:
                verdict, shown = "", ""
            else:
                ok = worse <= bound
                failed += not ok
                verdict, shown = ("pass" if ok else "FAIL"), f"{bound:.0%}"
            print(
                f"{w:14} {m['name']:40} {ma:12.5g} {mb:12.5g} {worse:+10.2%} "
                f"{shown:>6}  {verdict}"
            )
    # Simulated results repeat exactly: same workload and seed, same digest,
    # on either side and with or without tracing.
    digests = {}
    for r in a + b:
        digests.setdefault((r["workload"], r["seed"]), set()).add(r["sim_digest"])
    split = {k: v for k, v in digests.items() if len(v) > 1}
    print(f"sim_digest: {len(digests) - len(split)} of {len(digests)} (workload, seed) pairs agree")
    for (w, seed), seen in sorted(split.items()):
        print(f"  {w} seed {seed}: {sorted(seen)}  FAIL")
    sys.exit(1 if failed or split else 0)


def check(args):
    spec = contract()
    described = subprocess.run(
        spec["command"] + ["--describe"], stdout=subprocess.PIPE, text=True, check=True
    ).stdout
    problems = []
    if json.loads(described) != spec:
        problems.append("BENCHMARK.json differs from `--describe`")
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    every = spec["workloads"] + spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in every]
    problems += [f"bad name {n}" for n in names if not name.match(n)]
    problems += [f"name used twice: {n}" for n in set(names) if names.count(n) > 1]
    problems += [
        f"bad unit {m['unit']}" for m in spec["end_to_end"] + spec["per_layer"] if not unit.match(m["unit"])
    ]
    problems += [f"why too long: {w['name']}" for w in spec["workloads"] if len(w["why"]) > 200]
    problems += [f"bound {m['bound']}" for m in spec["end_to_end"] if not 0 < m["bound"] <= 0.25]
    if not any(
        m["name"] == "setup_s" and m["unit"] == "s" and m["better"] == "lower"
        for m in spec["end_to_end"]
    ):
        problems.append("no setup_s")
    if not (2 <= len(spec["workloads"]) <= 8 and 1 <= len(spec["end_to_end"]) <= 16):
        problems.append("workload or end_to_end count")
    if not 1 <= len(spec["per_layer"]) <= 128:
        problems.append("per_layer count")
    runs = 4 + 22 * len(spec["workloads"])
    print(f"{len(spec['per_layer'])} per-layer metrics; the driver makes {runs} runs")
    for p in problems:
        print("PROBLEM:", p)
    sys.exit(1 if problems else 0)


def main():
    commands = {"collect": collect, "spread": spread, "diff": diff, "check": check}
    if len(sys.argv) < 2 or sys.argv[1] not in commands:
        sys.exit(__doc__)
    try:
        commands[sys.argv[1]](sys.argv[2:])
    except (ValueError, IndexError):
        sys.exit(__doc__)


if __name__ == "__main__":
    main()
