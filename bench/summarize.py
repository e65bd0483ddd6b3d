"""Summarize benchmark runs: median and quartiles per workload and metric.

    for s in 1 2 3; do python3 bench/run.py --workload gamma-sweep --seed $s >> runs.jsonl; done
    python3 bench/summarize.py runs.jsonl > summary.json

Reads the stdout of any number of runs (report and result lines, in
order) and prints one JSON object keyed by workload, then by trace
setting.  The spread is the quartile distance over the median, as the
benchmark's bounds are checked.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict


def stats(values: list[float]) -> dict:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0,
            "runs": len(values)}


def summarize(lines: list[str]) -> dict:
    groups = defaultdict(lambda: defaultdict(list))
    report = None
    for line in lines:
        doc = json.loads(line)
        if "report" in doc:
            report = doc["report"]
            continue
        key = (report["workload"], "traced" if report["trace"] else "untraced")
        figures = {**doc["metrics"], **report["accuracy"], "fail_frac": report["fail_frac"]}
        for name, m in figures.items():
            groups[key][name].append(m["value"])
        groups[key]["correct"].append(float(doc["correct"]))
    out = defaultdict(dict)
    for (workload, mode), metrics in sorted(groups.items()):
        out[workload][mode] = {name: stats(v) for name, v in metrics.items()}
    return out


if __name__ == "__main__":
    text = []
    for path in sys.argv[1:]:
        with open(path) as fh:
            text += [ln for ln in fh if ln.startswith("{")]
    print(json.dumps(summarize(text), indent=1))
