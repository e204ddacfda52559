"""``python -m bench compare BASE.jsonl NEW.jsonl``: per workload and
metric, the medians and quartiles of two sets of runs and a verdict.

Runs are paired in file order (run them alternating: base, new, base,
new, ...). The rules are the ones the benchmark's bounds are written
for:

* a metric whose base runs spread wider than its bound is
  ``unresolved`` unless every new run beats (``better``) or trails
  (``worse``) every base run;
* otherwise a new median worse than the base median by more than the
  bound is ``worse``;
* ``better`` needs the new run to win at least nine tenths of the
  pairs, ties counting for neither, and the medians to differ by more
  than the base runs' interquartile distance;
* anything else is ``unchanged``. Per-layer metrics have no bound, so
  they are ``better``, ``worse`` (the same rule mirrored), ``same``
  (identical readings) or ``unresolved``.
"""

from __future__ import annotations

import json
from pathlib import Path

from bench import stats

WIN_SHARE = 0.9


def load(path: Path) -> dict[tuple[str, int], list[dict]]:
    runs: dict[tuple[str, int], list[dict]] = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            runs.setdefault((record["workload"], record["trace"]), []).append(record)
    return runs


def _wins(a: list[float], b: list[float], sign: int) -> int:
    """Pairs in which ``b`` beats ``a``."""
    return sum(1 for x, y in zip(a, b) if sign * (x - y) > 0)


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    sign = 1 if better == "lower" else -1
    mb, mn = stats.median(base), stats.median(new)
    q1, q3 = stats.quartiles(base)
    pairs = min(len(base), len(new))
    wins, losses = _wins(base, new, sign), _wins(new, base, sign)
    moved = abs(mn - mb) > q3 - q1
    if bound is None:
        if base == new:
            return "same"
        if pairs and moved and wins >= WIN_SHARE * pairs:
            return "better"
        if pairs and moved and losses >= WIN_SHARE * pairs:
            return "worse"
        return "unresolved"
    if mb and stats.spread(base) > bound:
        if all(sign * (b - n) > 0 for b in base for n in new):
            return "better"
        if all(sign * (n - b) > 0 for b in base for n in new):
            return "worse"
        return "unresolved"
    if sign * (mn - mb) > bound * abs(mb):
        return "worse"
    if pairs and moved and sign * (mb - mn) > 0 and wins >= WIN_SHARE * pairs:
        return "better"
    return "unchanged"


def _fmt(values: list[float]) -> str:
    s = stats.summarize(values)
    return f"{s['median']:.4g} [{s['q1']:.4g}, {s['q3']:.4g}] n={s['n']}"


def compare(base_path: Path, new_path: Path, spec: dict) -> int:
    base, new = load(base_path), load(new_path)
    metrics = {0: spec["end_to_end"], 1: spec["per_layer"]}
    worse = 0
    print(f"{'workload':<15} {'metric':<32} {'base median [q1, q3]':<34} "
          f"{'new median [q1, q3]':<34} {'change':>8}  verdict")
    for key in sorted(set(base) & set(new)):
        workload, trace = key
        for metric in metrics[trace]:
            name = metric["name"]
            b = [r["metrics"][name] for r in base[key] if name in r["metrics"]]
            n = [r["metrics"][name] for r in new[key] if name in r["metrics"]]
            if not b or not n:
                continue
            mb = stats.median(b)
            change = (stats.median(n) - mb) / mb * 100.0 if mb else 0.0
            result = verdict(b, n, metric["better"], metric.get("bound"))
            worse += result == "worse" and trace == 0
            print(f"{workload:<15} {name:<32} {_fmt(b):<34} {_fmt(n):<34} "
                  f"{change:>+7.1f}%  {result}")
    failed = [
        f"{side} {workload}: {r['failed']} of {r['attempted']} failed"
        for side, runs in (("base", base), ("new", new))
        for (workload, _), records in runs.items()
        for r in records if not r["correct"]
    ]
    for line in failed:
        print(line)
    return 1 if worse or failed else 0
