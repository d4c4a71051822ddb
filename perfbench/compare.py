#!/usr/bin/env python3
"""Compares two benchmark result files written by run.py --result.

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

For every workload x metric found in both files it prints each side's median
and quartiles, the share of pairs the new side wins (the i-th run of each
side, in file order; ties count for neither), the shifted-geometric-mean
delta of new over base, and a verdict for metrics that carry a bound in
BENCHMARK.json:

  unresolved  either side's quartile spread, as a share of its median, is
              wider than the bound, and not every new run beats every base
              run; or more than half of either side's runs of the workload
              are marked disturbed (the host took more than 2% of the
              machine's CPU time during the run, see run.py)
  worse       the new median is worse than the base median by more than the
              bound
  better      the new side wins at least nine tenths of the pairs and the
              medians differ by more than the base's quartile spread
  same        none of the above

Metrics without a bound (the per-layer ones) get no verdict. The exit code
is 1 when any metric is worse, else 0.
"""

import argparse
import json
import math
import statistics
import sys
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
# Share of the pooled median added before taking logs, so values near zero
# cannot dominate the geometric mean.
SHIFT_SHARE = 0.01
WIN_SHARE = 0.9


def load_records(path):
    with open(path) as lines:
        return [json.loads(line) for line in lines if line.strip()]


def load_catalog():
    """metric name -> {"better": "higher"|"lower", "bound": float|None}."""
    spec = json.loads(BENCHMARK.read_text())
    catalog = {}
    for metric in spec["end_to_end"] + spec["per_layer"]:
        catalog[metric["name"]] = {"better": metric["better"],
                                   "bound": metric.get("bound")}
    return catalog


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def shifted_geomean(values, shift):
    return math.exp(statistics.fmean(math.log(v + shift) for v in values)) \
        - shift


def series(records):
    """(workload, metric) -> values in file order."""
    out = {}
    for record in records:
        for name, metric in record["metrics"].items():
            out.setdefault((record["workload"], name), []).append(
                metric["value"])
    return out


def disturbed_shares(records):
    """workload -> share of its runs that run.py marked disturbed."""
    runs = {}
    for record in records:
        runs.setdefault(record["workload"], []).append(
            bool(record.get("samples", {}).get("disturbed")))
    return {workload: sum(flags) / len(flags)
            for workload, flags in runs.items()}


def compare_metric(base, new, better, bound, disturbed=False):
    """One row of the comparison for two lists of values; `disturbed` says
    that most runs of one side were disturbed."""
    sign = 1 if better == "higher" else -1
    b1, b_med, b3 = quartiles(base)
    n1, n_med, n3 = quartiles(new)
    pairs = list(zip(base, new))
    wins = sum(sign * (n - b) > 0 for b, n in pairs)
    win_share = wins / len(pairs) if pairs else 0.0
    pooled = statistics.median(base + new)
    shift = SHIFT_SHARE * abs(pooled)
    if min(base + new) + shift <= 0:
        delta = 0.0
    else:
        delta = shifted_geomean(new, shift) / shifted_geomean(base, shift) - 1
    row = {"base_median": b_med, "base_q1": b1, "base_q3": b3,
           "new_median": n_med, "new_q1": n1, "new_q3": n3,
           "win_share": win_share, "sgm_delta": delta, "verdict": "-"}
    if bound is None:
        return row

    def spread(q1, q3, median):
        return (q3 - q1) / abs(median) if median else math.inf

    dominates = all(sign * (n - b) > 0 for b in base for n in new)
    wide = max(spread(b1, b3, b_med), spread(n1, n3, n_med)) > bound
    worsening = -sign * (n_med - b_med) / abs(b_med) if b_med else 0.0
    if disturbed or (wide and not dominates):
        row["verdict"] = "unresolved"
    elif worsening > bound:
        row["verdict"] = "worse"
    elif win_share >= WIN_SHARE and abs(n_med - b_med) > (b3 - b1):
        row["verdict"] = "better"
    else:
        row["verdict"] = "same"
    return row


def compare(base_records, new_records, catalog):
    """Rows keyed by (workload, metric), for keys present on both sides."""
    base, new = series(base_records), series(new_records)
    disturbed = {}
    for shares in (disturbed_shares(base_records),
                   disturbed_shares(new_records)):
        for workload, share in shares.items():
            disturbed[workload] = disturbed.get(workload, False) or share > 0.5
    rows = {}
    for key in sorted(set(base) & set(new)):
        info = catalog.get(key[1], {"better": "higher", "bound": None})
        rows[key] = compare_metric(base[key], new[key], info["better"],
                                   info["bound"], disturbed[key[0]])
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description="Compare two result files.")
    parser.add_argument("base", type=Path)
    parser.add_argument("new", type=Path)
    args = parser.parse_args(argv)
    rows = compare(load_records(args.base), load_records(args.new),
                   load_catalog())
    print(f"{'workload':18s} {'metric':28s} {'base median [q1, q3]':>36s} "
          f"{'new median [q1, q3]':>36s} {'won':>5s} {'sgm delta':>9s} "
          "verdict")
    for (workload, metric), row in rows.items():
        base = (f"{row['base_median']:.5g} [{row['base_q1']:.5g}, "
                f"{row['base_q3']:.5g}]")
        new = (f"{row['new_median']:.5g} [{row['new_q1']:.5g}, "
               f"{row['new_q3']:.5g}]")
        print(f"{workload:18s} {metric:28s} {base:>36s} {new:>36s} "
              f"{row['win_share']:5.0%} {row['sgm_delta']:+9.2%} "
              f"{row['verdict']}")
    return 1 if any(r["verdict"] == "worse" for r in rows.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
