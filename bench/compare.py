"""Compare two sets of untraced benchmark runs, metric by metric.

    python3 bench/compare.py --base A1.json A2.json ... --head B1.json ...

Each argument is a ``results.json`` written by ``bench/run.py`` (or a
directory of them, such as ``bench/out/runs``).  Runs pair up in the order
given.  For every workload and end-to-end metric the tool prints both
sides' median and quartiles, the share of pairs the head side won, the
host probe of each side, and a verdict:

* ``improved``: the head wins at least 9 of every 10 pairs (10 pairs or
  more) and its median moved by more than the base's interquartile range;
* ``unresolved``: a side's spread (IQR / median) exceeds the metric's
  bound and not every head run beats every base run;
* ``regressed``: the head median is worse by more than the bound;
* ``within-bound`` otherwise.

Bounds come from ``BENCHMARK.json``; ``failed_frac`` may not rise at all.
Two sets of runs of one commit agree when no row is improved, regressed or
unresolved.  Exits 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Sequence

from measure import quartiles, spread

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS_FOR_GAIN = 10
WIN_SHARE_FOR_GAIN = 0.9


def load_runs(paths: Sequence[Path]) -> List[Dict]:
    """Untraced run records, in the order given (directories sorted)."""
    files: List[Path] = []
    for path in paths:
        files.extend(sorted(path.glob("*.json")) if path.is_dir() else [path])
    runs = [json.loads(f.read_text()) for f in files]
    return [r for r in runs if not r.get("trace")]


def series(runs: List[Dict], workload: str, metric: str) -> List[float]:
    out = []
    for run in runs:
        got = run["workloads"].get(workload)
        if got is None:
            continue
        if metric in got["metrics"]:
            out.append(got["metrics"][metric]["value"])
        elif metric in got.get("extra", {}):
            out.append(got["extra"][metric])
    return out


def verdict(base: Sequence[float], head: Sequence[float], bound: float,
            better: str) -> Dict:
    """The comparison of one workload x metric (see the module doc)."""
    sign = 1.0 if better == "lower" else -1.0  # > 0 means worse
    base_med, head_med = statistics.median(base), statistics.median(head)
    worse = sign * (head_med - base_med) / base_med if base_med else 0.0
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if sign * (h - b) < 0)
    q1, __, q3 = quartiles(base)
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    widest = max(spread(base), spread(head))
    if (len(pairs) >= MIN_PAIRS_FOR_GAIN
            and wins >= WIN_SHARE_FOR_GAIN * len(pairs)
            and worse < 0 and abs(head_med - base_med) > q3 - q1):
        name = "improved"
    elif widest > bound and not all_better:
        name = "unresolved"
    elif worse > bound:
        name = "regressed"
    else:
        name = "within-bound"
    return {"verdict": name, "change": sign * worse,
            "wins": wins, "pairs": len(pairs), "spread": widest}


def _fmt(values: Sequence[float]) -> str:
    q1, median, q3 = quartiles(values)
    return f"{median:.4g} [{q1:.4g}, {q3:.4g}]"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--base", nargs="+", type=Path, required=True)
    parser.add_argument("--head", nargs="+", type=Path, required=True)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = [(m["name"], m["better"], m["bound"])
               for m in spec["end_to_end"]]
    metrics.append(("failed_frac", "lower", 0.0))
    base, head = load_runs(args.base), load_runs(args.head)
    workloads = [w["name"] for w in spec["workloads"]]
    print(f"{'workload':<15} {'metric':<16} {'base median [Q1, Q3]':<32} "
          f"{'head median [Q1, Q3]':<32} {'change':>7} {'won':>6} "
          f"{'spread':>6} {'bound':>5}  {'verdict':<12} probe ms base/head")
    counts: Dict[str, int] = {}
    for workload in workloads:
        probe_b = series(base, workload, "host.probe_ms_p50")
        probe_h = series(head, workload, "host.probe_ms_p50")
        probe = (f"{statistics.median(probe_b):.2f}/"
                 f"{statistics.median(probe_h):.2f}"
                 if probe_b and probe_h else "-")
        for metric, better, bound in metrics:
            b = series(base, workload, metric)
            h = series(head, workload, metric)
            if not b or not h:
                continue
            if metric == "failed_frac":
                got = {"verdict": "regressed" if max(h) > max(b)
                       else "within-bound", "change": max(h) - max(b),
                       "wins": 0, "pairs": min(len(b), len(h)),
                       "spread": 0.0}
            else:
                got = verdict(b, h, bound, better)
            counts[got["verdict"]] = counts.get(got["verdict"], 0) + 1
            print(f"{workload:<15} {metric:<16} {_fmt(b):<32} {_fmt(h):<32} "
                  f"{got['change']:>+7.1%} {got['wins']:>2}/{got['pairs']:<3} "
                  f"{got['spread']:>6.1%} {bound:>5.0%}  "
                  f"{got['verdict']:<12} {probe}")
    print("verdicts: " + ", ".join(f"{k} {v}" for k, v in sorted(
        counts.items())))
    agree = not any(counts.get(k) for k in
                    ("improved", "regressed", "unresolved"))
    print(f"the two sets {'agree' if agree else 'do not agree'} "
          f"within the benchmark's bounds")
    return 1 if counts.get("regressed") else 0


if __name__ == "__main__":
    sys.exit(main())
