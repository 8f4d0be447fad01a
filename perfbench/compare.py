"""Summarize one result set, or compare two, using the bounds in BENCHMARK.json.

    python3 perfbench/compare.py results.jsonl               # one set
    python3 perfbench/compare.py base.jsonl head.jsonl       # base vs head

A result set is a file of records written by ``run.py --out`` (or by
``suite.py``), one record per run.  Each run contributes its median to the
set; the set is reported as median and quartiles over its runs, with the
spread (quartile distance over the median) and the run count.

Verdicts per workload and end-to-end metric, head against base:
  better              head wins at least 9 in 10 seed pairs and the medians
                      differ by more than the base spread
  worse beyond bound  head's median is worse by more than the metric's bound
  unresolved          a spread is wider than the bound, so the data cannot
                      tell a regression from noise
  worse within bound  head is worse than base, by less than the bound
  within bound        any other change smaller than the bound
"""

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

from spec import SPEC


def load(path) -> dict:
    """{workload: {"plain": [records], "traced": [records]}} from a records file."""
    sets = defaultdict(lambda: {"plain": [], "traced": []})
    for line in Path(path).read_text().splitlines():
        if line.strip():
            rec = json.loads(line)
            sets[rec["workload"]]["traced" if rec["trace"] else "plain"].append(rec)
    return sets


def quartiles(values: list) -> tuple:
    """(q1, median, q3) as statistics.quantiles(n=4) gives them."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def spread(values: list) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def series(records: list, metric: str) -> dict:
    """{seed: value} of one metric over a set's runs."""
    return {r["seed"]: r["metrics"][metric]["value"] for r in records}


def fail_line(records: list) -> str:
    failed = sum(r["failed"] for r in records)
    attempted = sum(r["attempted"] for r in records)
    wrong = sum(not r["correct"] for r in records)
    return f"fail_frac {failed}/{attempted} solves, {wrong} of {len(records)} runs incorrect"


def tracing_overhead(sets: dict, workload: str) -> str:
    plain, traced = sets[workload]["plain"], sets[workload]["traced"]
    if not plain or not traced:
        return "tracing overhead: n/a (needs traced and untraced runs)"
    untraced = statistics.median(series(plain, "solve_s").values())
    with_trace = statistics.median(series(traced, "trace.solve_s").values())
    return (f"tracing overhead: {with_trace - untraced:+.3f} s "
            f"(traced {with_trace:.3f} s vs untraced {untraced:.3f} s)")


def summarize(sets: dict, spec: dict) -> None:
    for workload, runs in sets.items():
        plain = runs["plain"]
        print(f"\n== {workload}: {len(plain)} runs, seeds "
              f"{sorted(r['seed'] for r in plain)}; {fail_line(plain + runs['traced'])}")
        if plain:
            print(f"{'metric':<14}{'unit':<7}{'q1':>13}{'median':>13}{'q3':>13}"
                  f"{'spread':>9}{'bound':>7}  steady")
        for m in spec["end_to_end"]:
            values = list(series(plain, m["name"]).values())
            if not values:
                continue
            q1, med, q3 = quartiles(values)
            s = spread(values)
            # A spread under a third of the bound leaves room for a real change.
            steady = "yes" if s < m["bound"] / 3 else "NO"
            print(f"{m['name']:<14}{m['unit']:<7}{q1:>13.6g}{med:>13.6g}{q3:>13.6g}"
                  f"{s:>9.4f}{m['bound']:>7.2f}  {steady}")
        if runs["traced"]:
            print(tracing_overhead(sets, workload))
            for m in spec["per_layer"]:
                values = list(series(runs["traced"], m["name"]).values())
                q1, med, q3 = quartiles(values)
                print(f"  {m['name']:<42}{med:>14.6g} {m['unit']:<6}"
                      f"[{q1:.6g}, {q3:.6g}] n={len(values)}")


def verdict(base: dict, head: dict, better: str, bound: float) -> str:
    a, b = list(base.values()), list(head.values())
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    pairs = [(base[k], head[k]) for k in base if k in head]
    wins = sum(sign * (y - x) < 0 for x, y in pairs)
    if worse > bound:
        return "worse beyond bound"
    if pairs and wins >= 0.9 * len(pairs) and -worse > spread(a):
        return "better"
    if max(spread(a), spread(b)) > bound:
        if all(sign * (y - x) < 0 for x in a for y in b):
            return "better"
        return "unresolved"
    return "worse within bound" if worse > 0 else "within bound"


def compare(base: dict, head: dict, spec: dict) -> None:
    for workload in sorted(set(base) | set(head)):
        pa, pb = base[workload]["plain"], head[workload]["plain"]
        print(f"\n== {workload}")
        print(f"base: {len(pa)} runs, {fail_line(pa)}")
        print(f"head: {len(pb)} runs, {fail_line(pb)}")
        if pa and pb:
            print(f"{'metric':<14}{'unit':<7}{'base q1/med/q3':>36}{'head q1/med/q3':>36}"
                  f"{'change':>9}  verdict")
        for m in spec["end_to_end"]:
            if not pa or not pb:
                break
            sa, sb = series(pa, m["name"]), series(pb, m["name"])
            qa, qb = quartiles(list(sa.values())), quartiles(list(sb.values()))
            change = (qb[1] - qa[1]) / abs(qa[1]) if qa[1] else 0.0
            print(f"{m['name']:<14}{m['unit']:<7}"
                  f"{'/'.join(f'{v:.4g}' for v in qa):>36}"
                  f"{'/'.join(f'{v:.4g}' for v in qb):>36}"
                  f"{change:>+9.2%}  {verdict(sa, sb, m['better'], m['bound'])}")
        print(f"base {tracing_overhead(base, workload)}")
        print(f"head {tracing_overhead(head, workload)}")
        ta, tb = base[workload]["traced"], head[workload]["traced"]
        if ta and tb:
            for m in spec["per_layer"]:
                a = statistics.median(series(ta, m["name"]).values())
                b = statistics.median(series(tb, m["name"]).values())
                ratio = f"x{b / a:.3f}" if a else ("same" if a == b else "new")
                print(f"  {m['name']:<42}{a:>14.6g}{b:>14.6g}  {ratio}")


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) not in (1, 2):
        print(__doc__, file=sys.stderr)
        return 2
    if len(argv) == 1:
        summarize(load(argv[0]), SPEC)
    else:
        compare(load(argv[0]), load(argv[1]), SPEC)
    return 0


if __name__ == "__main__":
    sys.exit(main())
