#!/usr/bin/env python3
"""Flag end-to-end regressions recorded in BENCH_*.json files.

    python3 scripts/bench_compare.py BENCH_16.json
    python3 scripts/bench_compare.py OLD.json NEW.json

A BENCH file holds perfbench runs (perfbench/run.py result lines) per
workload, for a "parent" and a "change" side:

    {"workloads": {"<name>": {"runs": {"parent": [RUN, ...],
                                       "change": [RUN, ...]}}}, ...}
    RUN = {"seed": N, "correct": bool, "attempted": N, "failed": N,
           "metrics": {"<metric>": {"value": X, "unit": "..."}, ...}}

With one file, the change side is compared with the parent side.  With two,
the second file's change side is compared with the first file's.  For every
workload both sides ran and every end-to-end metric BENCHMARK.json lists,
the candidate median is flagged when it is worse than the baseline median
by more than the metric's bound.  A candidate run that is not correct, or a
larger share of failed operations than the baseline's, is flagged too.
Exits 1 when anything is flagged, 2 on unreadable input, 0 otherwise.
"""
import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(path):
    with open(path) as f:
        return json.load(f)


def side(bench, name):
    """{workload: [run, ...]} for one side of a BENCH file."""
    return {wl: body["runs"][name]
            for wl, body in bench["workloads"].items()
            if body.get("runs", {}).get(name)}


def median(runs, metric):
    return statistics.median(r["metrics"][metric]["value"] for r in runs)


def fail_share(runs):
    attempted = sum(r["attempted"] for r in runs)
    return sum(r["failed"] for r in runs) / attempted if attempted else 0.0


def compare(base, cand, metrics):
    """Print one row per workload and metric; return the flagged rows."""
    flagged = []
    for wl in sorted(set(base) & set(cand)):
        b_runs, c_runs = base[wl], cand[wl]
        if not all(r["correct"] for r in c_runs):
            flagged.append(f"{wl}: a run reported correct=false")
        if fail_share(c_runs) > fail_share(b_runs):
            flagged.append(f"{wl}: failed share {fail_share(c_runs):.4%} > "
                           f"{fail_share(b_runs):.4%}")
        for m in metrics:
            name, bound = m["name"], m["bound"]
            b, c = median(b_runs, name), median(c_runs, name)
            change = (c - b) / b if b else 0.0
            worse = change if m["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok"
            print(f"{wl:14} {name:22} {b:12.6g} -> {c:12.6g} {m['unit']:5} "
                  f"{change:+7.1%}  (bound {bound:.0%}, {m['better']} is "
                  f"better, n={len(b_runs)}/{len(c_runs)})  {verdict}")
            if verdict != "ok":
                flagged.append(f"{wl}: {name} {change:+.1%} beyond the "
                               f"{bound:.0%} bound")
    return flagged


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__, file=sys.stderr)
        return 2
    try:
        metrics = load(os.path.join(ROOT, "BENCHMARK.json"))["end_to_end"]
        files = [load(path) for path in argv[1:]]
        if len(files) == 1:
            base, cand = side(files[0], "parent"), side(files[0], "change")
        else:
            base, cand = side(files[0], "change"), side(files[1], "change")
        flagged = compare(base, cand, metrics)
    except (OSError, ValueError, KeyError, TypeError) as e:
        print(f"bench_compare: unreadable input: {e!r}", file=sys.stderr)
        return 2
    if not set(base) & set(cand):
        print("bench_compare: no workload on both sides", file=sys.stderr)
        return 2
    for line in flagged:
        print(f"FLAGGED {line}")
    return 1 if flagged else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
