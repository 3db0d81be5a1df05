#!/usr/bin/env python3
"""Offline analysis of benchmark result sets (no network, no gh api).

A result set is a directory tree holding the result.json files that
surro_bench writes, one per run (benchmark/run.sh --repeat N --out DIR
lays them out as DIR/<workload>/run<i>/result.json).

  compare.py spread DIR...
      Per workload and metric: median, quartiles, IQR/median and
      (max-min)/median over the runs, the bound that spread suggests
      (max(5%, 2 x (max-min)/median), capped at 25%), and flags: "wide"
      when (max-min)/median is above 10% (a candidate for demotion to a
      diagnostic), "iqr>bound/3" when the IQR is not below a third of the
      metric's BENCHMARK.json bound.

  compare.py ab PARENT_DIR CHANGE_DIR
      A/B of two commits' result sets, run i of one paired with run i of
      the other (alternate which side runs first when producing them).
      A gain needs >= 10 pairs, a win in >= 9/10 of them (ties count for
      neither side) and a median gap wider than the parent's IQR. Every
      other metric/workload pair must not be worse than the parent's
      median by more than its BENCHMARK.json bound; where the parent's own
      spread exceeds the bound the pair is "unresolved" unless every change
      run beats every parent run. A workload whose change runs fail more
      jobs than the parent's, or include an incorrect run, gets no gain.
      Exits 1 on any regression, such a workload, a metric missing on one
      side, or unequal run counts.

  compare.py vocabulary DIR...
      Exits 1 unless every per-layer metric in BENCHMARK.json is measured
      (not idle) by at least one traced run under DIR: a metric listed
      there that no workload produces would read 0 everywhere.

  compare.py baseline DIR... [--out FILE]
      Medians (and IQR/median) of every metric per workload plus host,
      nproc, simd backend, seeds and run length, as committed in
      benchmark/baseline.json.
"""

import argparse
import datetime
import json
import os
import platform
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BENCHMARK_JSON = os.path.join(os.path.dirname(HERE), "BENCHMARK.json")

MIN_PAIRS = 10
WIN_SHARE = 0.9
DEMOTE_SPREAD = 0.10
MIN_BOUND = 0.05
MAX_BOUND = 0.25


def load_definitions():
    """Metric name -> {"better", "bound" (None for per-layer), "unit"}."""
    with open(BENCHMARK_JSON) as f:
        bench = json.load(f)
    defs = {}
    for m in bench["end_to_end"]:
        defs[m["name"]] = {"better": m["better"], "bound": m["bound"],
                           "unit": m["unit"]}
    for m in bench["per_layer"]:
        defs[m["name"]] = {"better": m["better"], "bound": None,
                           "unit": m["unit"]}
    return bench, defs


def load_runs(roots):
    """(workload, traced) -> list of result dicts, in path order."""
    runs = {}
    for root in roots:
        found = []
        for dirpath, _, files in os.walk(root):
            if "result.json" in files:
                found.append(os.path.join(dirpath, "result.json"))
        for path in sorted(found):
            with open(path) as f:
                result = json.load(f)
            key = (result["workload"], bool(result["trace"]))
            runs.setdefault(key, []).append(result)
    if not runs:
        sys.exit(f"compare.py: no result.json under {', '.join(roots)}")
    return runs


def values(results, metric):
    return [r["metrics"][metric]["value"] for r in results
            if metric in r["metrics"]]


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def rel(x, base):
    return x / base if base else 0.0


def spread(args):
    _, defs = load_definitions()
    runs = load_runs(args.dirs)
    wide = []
    print(f"{'workload':<15} {'metric':<34} {'n':>3} {'median':>12} "
          f"{'q1':>12} {'q3':>12} {'iqr/med':>8} {'rng/med':>8} "
          f"{'bound':>6} {'suggest':>7}")
    for (workload, traced), results in sorted(runs.items()):
        metrics = sorted({m for r in results for m in r["metrics"]},
                         key=lambda m: list(defs).index(m)
                         if m in defs else len(defs))
        for metric in metrics:
            xs = values(results, metric)
            q1, med, q3 = quartiles(xs)
            iqr = rel(q3 - q1, med)
            rng = rel(max(xs) - min(xs), med)
            bound = defs.get(metric, {}).get("bound")
            suggest = min(MAX_BOUND, max(MIN_BOUND, 2 * rng))
            flag = ""
            if bound is not None:
                if iqr > bound / 3:
                    flag += "  iqr>bound/3"
                if rng > DEMOTE_SPREAD:
                    flag += "  wide"
                    wide.append(f"{metric}@{workload}")
            print(f"{workload:<15} {metric:<34} {len(xs):>3} {med:>12.6g} "
                  f"{q1:>12.6g} {q3:>12.6g} {iqr:>8.2%} {rng:>8.2%} "
                  f"{'' if bound is None else format(bound, '.0%'):>6} "
                  f"{suggest if bound is not None else 0:>7.0%}{flag}")
    if wide:
        print(f"\nwide: (max-min)/median above {DEMOTE_SPREAD:.0%}, the "
              "candidates for demotion to diagnostics: " + ", ".join(wide))
    else:
        print(f"\nno gated metric has (max-min)/median above "
              f"{DEMOTE_SPREAD:.0%}")
    return 0


def outcome(results):
    """(failed, attempted, seeds of incorrect runs) over one side's runs."""
    return (sum(r["failed"] for r in results),
            sum(r["attempted"] for r in results),
            [r["seed"] for r in results if not r["correct"]])


def ab(args):
    _, defs = load_definitions()
    parent_runs = load_runs([args.parent])
    change_runs = load_runs([args.change])
    problems = 0
    print(f"{'workload':<15} {'metric':<34} {'pairs':>5} {'parent med':>12} "
          f"{'[q1, q3]':>25} {'change med':>12} {'wins':>6}  verdict")
    for key in sorted(set(parent_runs) & set(change_runs)):
        workload, _ = key
        parent, change = parent_runs[key], change_runs[key]
        p_failed, p_attempted, p_incorrect = outcome(parent)
        c_failed, c_attempted, c_incorrect = outcome(change)
        print(f"{workload:<15} jobs failed: parent {p_failed}/{p_attempted}, "
              f"change {c_failed}/{c_attempted}; incorrect runs (seeds): "
              f"parent {p_incorrect or 'none'}, change {c_incorrect or 'none'}")
        no_gain = c_failed > p_failed or bool(c_incorrect)
        if no_gain:
            print(f"{workload:<15} NO GAIN COUNTS: the change fails more jobs "
                  "than the parent or has an incorrect run")
            problems += 1
        if len(parent) != len(change):
            print(f"{workload:<15} UNEQUAL RUN COUNTS: parent {len(parent)}, "
                  f"change {len(change)} (a run that crashed writes no "
                  "result.json)")
            problems += 1
        for metric, d in defs.items():
            p, c = values(parent, metric), values(change, metric)
            if len(p) != len(parent) or len(c) != len(change):
                if p or c:
                    print(f"{workload:<15} {metric:<34} MISSING in "
                          f"{len(parent) - len(p)} parent and "
                          f"{len(change) - len(c)} change runs")
                    problems += 1
                continue
            lower = d["better"] == "lower"
            better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
            pairs = list(zip(p, c))
            wins = sum(1 for pv, cv in pairs if better(cv, pv))
            losses = sum(1 for pv, cv in pairs if better(pv, cv))
            pq1, pmed, pq3 = quartiles(p)
            cmed = statistics.median(c)
            gap = cmed - pmed
            worse_by = (gap if lower else -gap) / pmed if pmed else 0.0
            bound = d["bound"]
            if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
                    and abs(gap) > (pq3 - pq1) and better(cmed, pmed)):
                verdict = "gain refused (failures)" if no_gain else "GAIN"
            elif bound is None:
                verdict = "info"
            elif rel(pq3 - pq1, pmed) > bound and not all(
                    better(cv, pv) for cv in c for pv in p):
                verdict = "unresolved (parent spread above bound)"
            elif worse_by > bound:
                verdict = f"REGRESSION ({worse_by:+.1%} > {bound:.0%})"
                problems += 1
            else:
                verdict = f"ok ({worse_by:+.1%} worse, bound {bound:.0%})"
            print(f"{workload:<15} {metric:<34} {len(pairs):>5} {pmed:>12.6g} "
                  f"{f'[{pq1:.6g}, {pq3:.6g}]':>25} {cmed:>12.6g} "
                  f"{wins:>2}-{losses:<3}  {verdict}")
    missing = set(parent_runs) ^ set(change_runs)
    for workload, traced in sorted(missing):
        print(f"{workload:<15} (trace={int(traced)}) present on one side only")
    return 1 if problems or missing else 0


def vocabulary(args):
    bench, _ = load_definitions()
    traced = [r for (_, t), results in load_runs(args.dirs).items() if t
              for r in results]
    if not traced:
        sys.exit("compare.py: no traced result.json to check")
    listed = [m["name"] for m in bench["per_layer"]]
    never = [m for m in listed
             if not any(m in r["metrics"] and m not in r["idle_metrics"]
                        for r in traced)]
    workloads = sorted({r["workload"] for r in traced})
    if never:
        print(f"per-layer metrics no traced run of {', '.join(workloads)} "
              f"measures: {', '.join(never)}")
        return 1
    print(f"all {len(listed)} per-layer metrics are measured by "
          f"{', '.join(workloads)}")
    return 0


def host_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def baseline(args):
    bench, defs = load_definitions()
    runs = load_runs(args.dirs)
    doc = {
        "kind": "surro_benchmark_baseline",
        "recorded": datetime.date.today().isoformat(),
        "host": host_model(),
        "run_seconds": bench["run_seconds"],
        "workloads": {},
    }
    for (workload, traced), results in sorted(runs.items()):
        entry = doc["workloads"].setdefault(workload, {})
        entry["nproc"] = results[0]["nproc"]
        entry["simd_backend"] = results[0]["simd_backend"]
        entry["seconds"] = results[0]["seconds"]
        section = entry.setdefault("per_layer" if traced else "end_to_end",
                                   {})
        section["runs"] = len(results)
        section["seeds"] = sorted(r["seed"] for r in results)
        section["median"] = {}
        section["iqr_over_median"] = {}
        for m in results[0]["metrics"]:
            q1, med, q3 = quartiles(values(results, m))
            section["median"][m] = med
            section["iqr_over_median"][m] = round(rel(q3 - q1, med), 4)
    text = json.dumps(doc, indent=1, sort_keys=False) + "\n"
    if args.out:
        with open(args.out, "w") as f:
            f.write(text)
    else:
        sys.stdout.write(text)
    return 0


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    sub = parser.add_subparsers(dest="mode", required=True)
    p = sub.add_parser("spread", help="run-to-run spread of one result set")
    p.add_argument("dirs", nargs="+")
    p.set_defaults(fn=spread)
    p = sub.add_parser("ab", help="parent vs change")
    p.add_argument("parent")
    p.add_argument("change")
    p.set_defaults(fn=ab)
    p = sub.add_parser("vocabulary", help="every per-layer metric measured")
    p.add_argument("dirs", nargs="+")
    p.set_defaults(fn=vocabulary)
    p = sub.add_parser("baseline", help="medians for baseline.json")
    p.add_argument("dirs", nargs="+")
    p.add_argument("--out")
    p.set_defaults(fn=baseline)
    args = parser.parse_args()
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
