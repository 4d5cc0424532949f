#!/usr/bin/env python3
"""Compare two sets of perfbench run records: parent against change.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl

Each file holds run records as ``run.py --record FILE`` appends them,
one JSON line per run.  Make the runs as alternating pairs (parent,
change, parent, change, ...) with identical settings; the n-th parent
record is paired with the n-th change record of the same workload.

For each workload x end-to-end metric of ``BENCHMARK.json`` it reports
both sides' quartiles, the share of pairs the change won (ties count
for neither side), each side's failed/attempted operations, and a
verdict judged against the metric's bound:

* ``worse``: the change failed a larger share of its operations than
  the parent (a gain bought with failed checks does not count), or
  its median is worse than the parent's by more than the bound;
* ``improved``: the change won at least 9 in 10 pairs and the medians
  differ by more than the parent's own quartile spread;
* ``unresolved``: either side's quartile spread exceeds the bound
  (unless every change run beat every parent run);
* ``unchanged``: none of the above.

The bounds are those of ``BENCHMARK.json`` at the checkout root.

Records whose machine fingerprints, run length or smoke setting differ
are refused (exit 2).  Exit 1 when any pair of workload and metric is
worse, else 0.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from harness import ROOT  # noqa: E402

WIN_SHARE = 0.9


class RefusedError(ValueError):
    """The two record sets cannot be compared."""


def quartiles(values) -> tuple[float, float, float]:
    """(q1, median, q3) as ``statistics.quantiles(n=4)`` gives them."""
    vals = list(values)
    if len(vals) == 1:
        return vals[0], vals[0], vals[0]
    q1, q2, q3 = statistics.quantiles(vals, n=4)
    return q1, q2, q3


def load_records(path) -> list[dict]:
    records = []
    for n, line in enumerate(Path(path).read_text().splitlines(), 1):
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("schema") != "perfbench-record/1":
            raise RefusedError(f"{path}:{n}: not a perfbench run record")
        if rec.get("trace") == 0:
            records.append(rec)
    return records


def check_comparable(records: list[dict]) -> None:
    """Refuse records made on different machines or settings."""
    first = records[0]
    for rec in records[1:]:
        for key in ("seconds", "smoke"):
            if rec[key] != first[key]:
                raise RefusedError(f"records differ in {key}: "
                                   f"{first[key]!r} vs {rec[key]!r}")
        fa, fb = first["fingerprint"], rec["fingerprint"]
        diff = sorted(k for k in set(fa) | set(fb) if fa.get(k) != fb.get(k))
        if diff:
            raise RefusedError(
                "machine fingerprints differ: " + "; ".join(
                    f"{k}: {fa.get(k)!r} vs {fb.get(k)!r}" for k in diff))


def verdict(base: list[float], change: list[float], better: str,
            bound: float, fails_more: bool = False) -> dict:
    """Judge one workload x metric; values in run (pair) order.
    ``fails_more``: the change failed a larger share of its operations
    than the parent."""
    lower = better == "lower"
    bq = quartiles(base)
    cq = quartiles(change)
    pairs = list(zip(base, change))
    wins = sum((c < b) if lower else (c > b) for b, c in pairs)
    share = wins / len(pairs) if pairs else 0.0
    worse_by = (cq[1] - bq[1]) / bq[1] if bq[1] else 0.0
    if not lower:
        worse_by = -worse_by
    spread = max((bq[2] - bq[0]) / bq[1] if bq[1] else 0.0,
                 (cq[2] - cq[0]) / cq[1] if cq[1] else 0.0)
    all_better = (max(change) < min(base)) if lower \
        else (min(change) > max(base))
    if fails_more:
        outcome = "worse"
    elif share >= WIN_SHARE and worse_by < 0 and \
            abs(cq[1] - bq[1]) > bq[2] - bq[0]:
        outcome = "improved"
    elif spread > bound and not all_better:
        outcome = "unresolved"
    elif worse_by > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"parent": bq, "change": cq, "pairs": len(pairs),
            "won_share": share, "worse_by": worse_by, "spread": spread,
            "verdict": outcome}


def compare(base_records, change_records, spec) -> list[dict]:
    if not base_records or not change_records:
        raise RefusedError("each side needs at least one --trace 0 record")
    check_comparable(base_records + change_records)
    rows = []
    workloads = [w["name"] for w in spec["workloads"]]
    for wl in workloads:
        b = [r for r in base_records if r["workload"] == wl]
        c = [r for r in change_records if r["workload"] == wl]
        if not b or not c:
            continue
        counts = {side: (sum(r["result"]["failed"] for r in rs),
                         sum(r["result"]["attempted"] for r in rs))
                  for side, rs in (("parent", b), ("change", c))}
        (fp, ap), (fc, ac) = counts["parent"], counts["change"]
        fails_more = fc * ap > fp * ac
        for m in spec["end_to_end"]:
            name = m["name"]
            row = verdict([r["result"]["metrics"][name]["value"] for r in b],
                          [r["result"]["metrics"][name]["value"] for r in c],
                          m["better"], m["bound"], fails_more)
            row.update(workload=wl, metric=name, unit=m["unit"],
                       bound=m["bound"], failed=counts)
            rows.append(row)
    return rows


def format_rows(rows) -> str:
    head = (f"{'workload':<16} {'metric':<12} {'parent q1/med/q3':<30} "
            f"{'change q1/med/q3':<30} {'won':>5} {'worse_by':>9} "
            f"{'bound':>6}  verdict     failed/attempted (parent, change)")
    lines = [head, "-" * len(head)]
    for r in rows:
        p = "/".join(f"{v:.4g}" for v in r["parent"])
        c = "/".join(f"{v:.4g}" for v in r["change"])
        fp, fc = r["failed"]["parent"], r["failed"]["change"]
        lines.append(
            f"{r['workload']:<16} {r['metric']:<12} {p:<30} {c:<30} "
            f"{r['won_share']:>5.0%} {r['worse_by']:>+9.1%} "
            f"{r['bound']:>6.0%}  {r['verdict']:<11} "
            f"{fp[0]}/{fp[1]}, {fc[0]}/{fc[1]}")
    return "\n".join(lines)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent", help="run records of the parent commit")
    p.add_argument("change", help="run records of the change")
    args = p.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    try:
        rows = compare(load_records(args.parent), load_records(args.change),
                       spec)
    except RefusedError as e:
        print(f"compare: refused: {e}", file=sys.stderr)
        return 2
    print(format_rows(rows))
    return 1 if any(r["verdict"] == "worse" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
