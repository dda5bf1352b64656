#!/usr/bin/env python3
"""Compares two sets of e2e_bench run reports against BENCHMARK.json.

    python3 bench/e2e/compare.py --base A1.json A2.json ... --head B1.json B2.json ...
                                 [--claim workload:metric]
    python3 bench/e2e/compare.py --self-test

Each argument is a run report written by e2e_bench (or run.py --out), or a
directory of them. Make the runs alternately, base then head, and pass each
side's reports in run order: the i-th base run of a workload is paired with
the i-th head run of it.

For every workload x metric of the untraced runs it prints each side's
median and quartiles. For each end-to-end metric of BENCHMARK.json it gives
a verdict:

  regression  the head median is worse than the base median by more than
              the metric's bound (a share of the base median);
  unresolved  either side's spread (quartile distance over median) is wider
              than the bound, unless every head run beats every base run;
  ok          otherwise.

It also fails on any report whose correctness gates failed, on a higher
fail_share (more than 0.001 above the base median, when the base runs agree
to within that), and on runs of one side whose digests differ for the same
workload and seed (traced runs must train the same bits as untraced ones).
Traced runs are reported as tracing overhead: traced run_s over untraced
run_s, minus 1.

--claim workload:metric applies the gain rule: the head must win at least
9 of every 10 pairs (ties win for neither side) and the medians must differ
by more than the base runs' quartile distance.

Exit status: 0 no regression and nothing unresolved (and the claim, if any,
met); 1 a regression, a broken gate, a higher fail_share, a digest mismatch
or an unmet claim; 2 no regression found but something unresolved. Python 3
standard library only.
"""

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
FAIL_SHARE_SLACK = 0.001


def load_reports(paths):
    reports = []
    for path in paths:
        path = Path(path)
        files = sorted(path.glob("*.json")) if path.is_dir() else [path]
        for f in files:
            if f.name.startswith("trace_"):
                continue  # a Chrome trace written beside the reports
            report = json.loads(f.read_text())
            if "header" not in report:
                continue  # not an e2e_bench report
            report["_file"] = str(f)
            reports.append(report)
    return reports


def quartiles(values):
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def worse(a, b, better):
    """True when value a is worse than value b."""
    return a > b if better == "lower" else a < b


def by_workload(reports, traced):
    groups = {}
    for r in reports:
        if bool(r["header"]["trace"]) == traced:
            groups.setdefault(r["header"]["workload"], []).append(r)
    return groups


def values(runs, metric):
    return [r["metrics"][metric]["value"] for r in runs
            if metric in r["metrics"] and r["metrics"][metric]["value"] is not None]


def verdict(base, head, better, bound):
    """'regression', 'unresolved' or 'ok' for one workload x metric."""
    _, base_med, _ = quartiles(base)
    _, head_med, _ = quartiles(head)
    if worse(head_med, base_med, better) and abs(head_med - base_med) > bound * abs(base_med):
        return "regression"
    all_better = all(worse(b, h, better) for b in base for h in head)
    if max(spread(base), spread(head)) > bound and not all_better:
        return "unresolved"
    return "ok"


def claim_met(base, head, better):
    """The gain rule over paired runs: >= 9/10 wins, median gap > base IQR."""
    pairs = list(zip(base, head))
    wins = sum(1 for b, h in pairs if worse(b, h, better))
    q1, base_med, q3 = quartiles(base)
    _, head_med, _ = quartiles(head)
    met = bool(pairs) and wins >= 0.9 * len(pairs) and abs(head_med - base_med) > q3 - q1
    return met, wins, len(pairs)


def compare(base_reports, head_reports, benchmark, claim=None, out=sys.stdout):
    """Prints the comparison; returns (exit status, list of problems)."""
    bounded = {m["name"]: m for m in benchmark["end_to_end"]}
    problems, unresolved = [], []

    for side, reports in (("base", base_reports), ("head", head_reports)):
        for r in reports:
            if not r.get("correct", False):
                bad = [g["name"] for g in r.get("gates", []) if not g["ok"]]
                problems.append(f"{side} {r['_file']}: gates failed: {', '.join(bad)}")
        digests = {}
        for r in reports:
            key = (r["header"]["workload"], r["header"]["seed"])
            if r.get("digest") is not None:
                digests.setdefault(key, set()).add(r["digest"])
        for (workload, seed), found in sorted(digests.items()):
            if len(found) > 1:
                problems.append(f"{side} {workload} seed {seed}: runs disagree on "
                                f"the digest {sorted(found)}")

    base_groups = by_workload(base_reports, traced=False)
    head_groups = by_workload(head_reports, traced=False)
    for workload in sorted(set(base_groups) | set(head_groups)):
        base, head = base_groups.get(workload, []), head_groups.get(workload, [])
        print(f"== {workload}: {len(base)} base runs, {len(head)} head runs", file=out)
        if not base or not head:
            problems.append(f"{workload}: runs on one side only")
            continue
        metrics = sorted(set().union(*(r["metrics"] for r in base + head)))
        for metric in metrics:
            b, h = values(base, metric), values(head, metric)
            if not b or not h:
                continue
            bq1, bmed, bq3 = quartiles(b)
            hq1, hmed, hq3 = quartiles(h)
            change = (hmed - bmed) / abs(bmed) if bmed else 0.0
            note = ""
            if metric in bounded:
                spec = bounded[metric]
                result = verdict(b, h, spec["better"], spec["bound"])
                note = f"bound {spec['bound']:.3f}  {result}"
                if result == "regression":
                    problems.append(f"{workload} {metric}: head median {hmed:.6g} vs "
                                    f"base {bmed:.6g} ({change:+.1%}, bound {spec['bound']})")
                elif result == "unresolved":
                    unresolved.append(f"{workload} {metric}")
            elif metric == "fail_share":
                base_agrees = bq3 - bq1 <= FAIL_SHARE_SLACK
                higher = hmed > bmed + FAIL_SHARE_SLACK
                if higher and (base_agrees or min(h) > max(b)):
                    note = "higher fail_share"
                    problems.append(f"{workload} fail_share: {hmed:.6g} vs {bmed:.6g}")
            print(f"  {metric:24s} base {bmed:12.6g} [{bq1:.6g}, {bq3:.6g}]  "
                  f"head {hmed:12.6g} [{hq1:.6g}, {hq3:.6g}]  {change:+7.1%}  {note}",
                  file=out)

    for side, reports in (("base", base_reports), ("head", head_reports)):
        traced = by_workload(reports, traced=True)
        plain = by_workload(reports, traced=False)
        for workload, runs in sorted(traced.items()):
            t, u = values(runs, "run_s"), values(plain.get(workload, []), "run_s")
            if t and u:
                overhead = statistics.median(t) / statistics.median(u) - 1.0
                print(f"{side} {workload}: tracing overhead {overhead:+.1%} "
                      f"(traced run_s median of {len(t)} / untraced of {len(u)})", file=out)

    claim_failed = False
    if claim:
        workload, metric = claim.split(":", 1)
        better = bounded.get(metric, {}).get("better", "lower")
        b = values(base_groups.get(workload, []), metric)
        h = values(head_groups.get(workload, []), metric)
        met, wins, pairs = claim_met(b, h, better)
        print(f"claim {claim}: head wins {wins} of {pairs} pairs -> "
              f"{'met' if met else 'NOT met'}", file=out)
        claim_failed = not met

    for p in problems:
        print(f"FAIL: {p}", file=out)
    for u in unresolved:
        print(f"unresolved: {u}", file=out)
    if problems or claim_failed:
        print("verdict: regression or broken run", file=out)
        return 1, problems
    if unresolved:
        print("verdict: no regression found, but some metrics are unresolved", file=out)
        return 2, unresolved
    print("verdict: no regression", file=out)
    return 0, []


# --- self-test ----------------------------------------------------------------

def synthetic(workload, seed, metrics, trace=False, correct=True, digest="d0"):
    return {
        "header": {"workload": workload, "seed": seed, "trace": trace},
        "correct": correct,
        "gates": [{"name": "g", "ok": correct, "detail": ""}],
        "digest": digest,
        "metrics": {k: {"value": v, "unit": "s"} for k, v in metrics.items()},
        "_file": f"{workload}-{seed}",
    }


def self_test():
    benchmark = {"end_to_end": [
        {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
        {"name": "goodput_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
    ]}
    steady = [1.00, 1.01, 0.99, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00, 1.02]

    def runs(scale=1.0, good=1000.0, fail=0.0, noisy=False, **kw):
        out = []
        for i, v in enumerate(steady):
            s = v * scale * (1.0 + (0.5 if noisy and i % 2 else 0.0))
            out.append(synthetic("w", i, {"setup_s": s, "goodput_per_s": good * v,
                                          "fail_share": fail}, **kw))
        return out

    sink = open("/dev/null", "w")
    cases = [
        ("same distributions", runs(), runs(), None, 0),
        ("40% slower set-up", runs(), runs(scale=1.4), None, 1),
        ("noisy base", runs(noisy=True), runs(), None, 2),
        ("noisy but every head run better", runs(scale=2.0, noisy=True),
         runs(scale=0.5), None, 0),
        ("claim met", runs(), runs(scale=0.8), "w:setup_s", 0),
        ("claim not met: gap within noise", runs(), runs(scale=0.995), "w:setup_s", 1),
        ("broken gate", runs(), runs(correct=False), None, 1),
        ("higher fail_share", runs(), runs(fail=0.01), None, 1),
        ("digest mismatch on one side", runs(),
         runs() + [synthetic("w", 0, {"setup_s": 1.0, "goodput_per_s": 1000.0,
                                      "fail_share": 0.0}, trace=True, digest="d1")],
         None, 1),
        ("goodput drop beyond bound", runs(), runs(good=800.0), None, 1),
    ]
    for name, base, head, claim, want in cases:
        got, _ = compare(base, head, benchmark, claim, out=sink)
        assert got == want, f"self-test '{name}': exit {got}, want {want}"

    assert claim_met([1.0] * 10, [0.9] * 8 + [1.1] * 2, "lower") == (False, 8, 10)
    assert claim_met([1.0] * 10, [0.9] * 9 + [1.0], "lower") == (True, 9, 10)
    # Ties win for neither side.
    assert claim_met([1.0] * 10, [0.9] * 8 + [1.0] * 2, "lower") == (False, 8, 10)
    with tempfile.TemporaryDirectory() as tmp:
        report = synthetic("w", 1, {"setup_s": 1.0})
        del report["_file"]
        (Path(tmp) / "r.json").write_text(json.dumps(report))
        (Path(tmp) / "trace_w.json").write_text(json.dumps({"traceEvents": []}))
        loaded = load_reports([tmp])
        assert len(loaded) == 1 and loaded[0]["metrics"]["setup_s"]["value"] == 1.0
    print(f"self-test ok ({len(cases)} comparison cases)")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", default=[])
    parser.add_argument("--head", nargs="+", default=[])
    parser.add_argument("--claim", help="workload:metric the head claims to improve")
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if not args.base or not args.head:
        parser.error("--base and --head each need at least one report")
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    status, _ = compare(load_reports(args.base), load_reports(args.head),
                        benchmark, args.claim)
    return status


if __name__ == "__main__":
    sys.exit(main())
