"""Compare two sets of benchmark results against BENCHMARK.json bounds.

    python3 perfbench/compare.py BASE HEAD

``BASE`` and ``HEAD`` are result documents written by ``run.py`` (under
``.perfbench/results/``), or directories of them.  Untraced results are
grouped by workload; for each end-to-end metric the medians are
compared, and a metric whose ``HEAD`` median is worse than the ``BASE``
median by more than its bound is a regression (exit 1), and so is a
workload with failed operations at ``HEAD``: its times do not count.
Results whose host records or measuring windows (``seconds``) differ
are not comparable: the script says which field differs and compares
nothing (exit 2).
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load(paths: list[str]) -> list[dict]:
    docs = []
    for path in paths:
        names = ([os.path.join(path, n) for n in sorted(os.listdir(path))
                  if n.endswith(".json")] if os.path.isdir(path) else [path])
        for name in names:
            with open(name) as f:
                doc = json.load(f)
            if doc.get("trace") == 0:
                docs.append(doc)
    return docs


def mismatch(docs: list[dict]) -> str | None:
    """The first field that makes two results not comparable: the
    measuring window or a host field."""
    first = docs[0]
    for doc in docs[1:]:
        if doc["seconds"] != first["seconds"]:
            return f"seconds: {first['seconds']!r} vs {doc['seconds']!r}"
        for key in sorted(set(first["host"]) | set(doc["host"])):
            if first["host"].get(key) != doc["host"].get(key):
                return (f"host {key}: {first['host'].get(key)!r} vs"
                        f" {doc['host'].get(key)!r}")
    return None


def compare(base: list[dict], head: list[dict], bench: dict) -> list[str]:
    """One line per (workload, metric); lines marked REGRESSION fail."""
    lines = []
    for workload in sorted({d["workload"] for d in base + head}):
        old = [d for d in base if d["workload"] == workload]
        new = [d for d in head if d["workload"] == workload]
        if not old or not new:
            lines.append(f"{workload}: missing on one side, not compared")
            continue
        failed = [sum(len(d["failures"]) for d in side)
                  for side in (old, new)]
        if failed[1]:
            lines.append(f"{workload:<15} failed operations {failed[0]} ->"
                         f" {failed[1]} REGRESSION  (times not compared)")
            continue
        for metric in bench["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            a = statistics.median(d["metrics"][name] for d in old)
            b = statistics.median(d["metrics"][name] for d in new)
            change = (b - a) / a if a else 0.0
            worse = change if metric["better"] == "lower" else -change
            verdict = "REGRESSION" if worse > bound else "ok"
            lines.append(f"{workload:<15} {name:<16} {a:10.4g} -> {b:10.4g}"
                         f" ({change:+.1%}, bound {bound:.0%}) {verdict}"
                         f"  [{len(old)} vs {len(new)} runs]")
    return lines


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = load([argv[0]]), load([argv[1]])
    if not base or not head:
        print("compare: no untraced results on one side", file=sys.stderr)
        return 2
    differs = mismatch(base + head)
    if differs is not None:
        print(f"not comparable: results differ in {differs}")
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    lines = compare(base, head, bench)
    print("\n".join(lines))
    return 1 if any(" REGRESSION " in line for line in lines) else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
