#!/usr/bin/env python3
"""A/B benchmark: a parent ref against the working tree, in alternating pairs.

    python3 scripts/bench_ab.py --parent REF --workload W --first-seed S \
        --pairs N [--seconds 20] [--trace-seed T [T ...]] [--claim METRIC] \
        [--change "what changed"] --out BENCH_<n>.json

Run from the root of a parksim checkout. Both sides are built the same way,
as `git archive` of a tree unpacked in its own directory under one
temporary directory that is removed afterwards: the parent side is REF's
tree, the change side the tree of the working tree (tracked files plus
untracked, not ignored ones, uncommitted edits and deletions included),
written from a temporary index so the checkout's own index is untouched.
Pair i runs `perfbench/run.py --seed S+i` on both sides, parent first in
even pairs and change first in odd ones, so drift in machine speed falls on
both sides alike.

For each end-to-end metric the workload entry holds q1/median/q3 per side
(inclusive quartiles), `change_over_parent` (ratio of medians),
`change_wins` (pairs the change won), `parent_iqr`, `median_gap` (the
absolute difference of the medians) and `within_bound` (false when the
change's median is worse than the parent's by more than the metric's
`bound` in BENCHMARK.json, a fraction of the parent's median), plus every
pair's raw values. With --trace-seed, each seed given adds one `--trace 1`
run per side, in the same alternating order; `trace` holds every traced
run and, per side, the median of each metric over them, so one slow spell
cannot decide the per-layer figures. A traced run may do a different
amount of work on each side (`fanout` runs jobs until its time is up), so
its totals do not compare; each traced run therefore also holds
`<span>_us_per_call`, its `<span>_s` over its `<span>_calls`, for the spans
of PER_CALL_SPANS it timed, and the medians cover those too. The entry is
merged into --out, so one file can hold several workloads.
Nothing under perfbench/ is changed.

With --claim METRIC, `claimed` in --out also holds the verdict, which is
printed too: the claim is met when the change wins at least nine tenths of
the pairs (ties count for neither side), its median is the better one and
differs from the parent's by more than the parent's IQR, and no more
operations failed than on the parent side.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import tarfile
import tempfile
from importlib import metadata

RUN_TIMEOUT_S = 900
# spans whose traced total time is also given per call
PER_CALL_SPANS = ("broker.handle", "broker.redeliver", "controller.handle", "codec.encode",
                  "codec.decode")


def git(args: list[str], env: dict | None = None) -> str:
    return subprocess.run(["git", *args], check=True, capture_output=True, text=True,
                          env=env).stdout.strip()


def working_tree_id() -> str:
    """Tree id of the working tree as `git add -A` would stage it."""
    with tempfile.TemporaryDirectory(prefix="bench_ab-index-") as tmp:
        env = {**os.environ, "GIT_INDEX_FILE": os.path.join(tmp, "index")}
        git(["read-tree", "HEAD"], env)
        git(["add", "-A"], env)
        return git(["write-tree"], env)


def export_tree(tree: str, dest: str) -> None:
    tar_path = dest + ".tar"
    git(["archive", "--format=tar", "-o", tar_path, tree])
    with tarfile.open(tar_path) as tar:
        tar.extractall(dest, filter="data")
    os.remove(tar_path)


def run_side(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"bench_ab: {' '.join(cmd)} failed in {root}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "failed": result["failed"],
        "metrics": {name: entry["value"] for name, entry in result["metrics"].items()},
    }


def quartiles(values: list[float]) -> dict[str, float]:
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": med, "q3": q3}


def within_bound(spec: dict, parent: float, change: float) -> bool:
    """Whether the `change` median is worse than the `parent` one by no more
    than the fraction `spec["bound"]` of the parent's."""
    worse_by = change - parent if spec["better"] == "lower" else parent - change
    return worse_by <= spec["bound"] * abs(parent)


def summarize(runs: list[dict], declared: list[dict]) -> dict:
    metrics = {}
    for spec in declared:
        name = spec["name"]
        parent = [r["parent"][name] for r in runs if name in r["parent"]]
        change = [r["change"][name] for r in runs if name in r["change"]]
        if not parent or len(parent) != len(change):
            continue
        lower = spec["better"] == "lower"
        p, c = quartiles(parent), quartiles(change)
        metrics[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "parent": p,
            "change": c,
            "change_over_parent": c["median"] / p["median"] if p["median"] else None,
            "change_wins": sum((cv < pv) if lower else (cv > pv) for pv, cv in zip(parent, change)),
            "parent_iqr": p["q3"] - p["q1"],
            "median_gap": abs(c["median"] - p["median"]),
            "within_bound": within_bound(spec, p["median"], c["median"]),
        }
    return metrics


def with_per_call(metrics: dict[str, float]) -> dict[str, float]:
    """`metrics` plus `<span>_us_per_call` for each span of PER_CALL_SPANS
    that has both `<span>_s` and a nonzero `<span>_calls`."""
    derived = {}
    for span in PER_CALL_SPANS:
        total, calls = metrics.get(f"{span}_s"), metrics.get(f"{span}_calls")
        if total is not None and calls:
            derived[f"{span}_us_per_call"] = total * 1e6 / calls
    return {**metrics, **derived}


def trace_medians(runs: list[dict[str, float]]) -> dict[str, float]:
    """Per metric, the median over one side's traced runs."""
    return {name: statistics.median(run[name] for run in runs)
            for name in runs[0] if all(name in run for run in runs)}


def claim_verdict(metric: dict, pairs: int, failed: dict[str, int]) -> dict:
    """Whether the change's gain on one metric counts (see the module docstring)."""
    lower = metric["better"] == "lower"
    parent, change = metric["parent"]["median"], metric["change"]["median"]
    checks = {
        "wins": metric["change_wins"] * 10 >= pairs * 9,
        "better_median": change < parent if lower else change > parent,
        "gap_over_iqr": metric["median_gap"] > metric["parent_iqr"],
        "no_more_failures": failed["change"] <= failed["parent"],
    }
    return {"met": all(checks.values()), **checks}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="scripts/bench_ab.py", description=__doc__.split("\n")[0])
    parser.add_argument("--parent", required=True, help="git ref of the parent side")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace-seed", type=int, nargs="+", default=[],
                        help="also run --trace 1 once per side for each seed")
    parser.add_argument("--claim", help="end-to-end metric this change claims to improve")
    parser.add_argument("--change", help="one-line description of the change")
    parser.add_argument("--out", required=True, help="BENCH_<n>.json to write or merge into")
    return parser.parse_args(argv)


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("bench_ab: run from the root of a parksim checkout", file=sys.stderr)
        return 2
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        declared = json.load(handle)["end_to_end"]
    if args.claim and args.claim not in {spec["name"] for spec in declared}:
        print(f"bench_ab: --claim {args.claim!r} is no end-to-end metric of BENCHMARK.json",
              file=sys.stderr)
        return 2

    seeds = [args.first_seed + i for i in range(args.pairs)]
    runs, traced = [], []
    with tempfile.TemporaryDirectory(prefix="bench_ab-") as tmp:
        roots = {"parent": os.path.join(tmp, "parent"), "change": os.path.join(tmp, "change")}
        trees = {"parent": git(["rev-parse", f"{args.parent}^{{tree}}"]),
                 "change": working_tree_id()}
        for side, root in roots.items():
            export_tree(trees[side], root)
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = run_side(roots[side], args.workload, seed, args.seconds, 0)
            runs.append(pair)
            print(f"pair {i + 1}/{args.pairs} seed {seed}: " + ", ".join(
                f"{name} {pair['parent']['metrics'].get(name, 0):.4g} -> "
                f"{pair['change']['metrics'].get(name, 0):.4g}"
                for name in ("run_s", "msg_us")), flush=True)
        for i, seed in enumerate(args.trace_seed):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {"seed": seed}
            for side in order:
                pair[side] = with_per_call(
                    run_side(roots[side], args.workload, seed, args.seconds, 1)["metrics"])
            traced.append(pair)
            print(f"traced pair {i + 1}/{len(args.trace_seed)} seed {seed}", flush=True)

    entry = {
        "pairs": len(runs),
        "correct": all(r[side]["correct"] for r in runs for side in ("parent", "change")),
        "failed": {side: sum(r[side]["failed"] for r in runs) for side in ("parent", "change")},
        "seeds": seeds,
        "metrics": summarize([{"parent": r["parent"]["metrics"], "change": r["change"]["metrics"]}
                              for r in runs], declared),
        "runs": [{"seed": r["seed"], "parent": r["parent"]["metrics"], "change": r["change"]["metrics"]}
                 for r in runs],
    }
    if traced:
        entry["trace"] = {"seeds": args.trace_seed,
                          **{side: trace_medians([pair[side] for pair in traced])
                             for side in ("parent", "change")},
                          "runs": traced}

    bench = {}
    if os.path.isfile(args.out):
        with open(args.out, encoding="utf-8") as handle:
            bench = json.load(handle)
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "missing"
    if args.change:
        bench["change"] = args.change
    bench["parent"] = args.parent
    bench["trees"] = trees
    bench["command"] = f"python3 perfbench/run.py --workload W --seed S --seconds {args.seconds:g} --trace 0"
    bench["method"] = ("alternating parent/change runs (parent first in even pairs), each side a "
                       "`git archive` of its tree unpacked under a temporary directory; seed = first "
                       "seed + pair index, same seed on both sides of a pair; inclusive quartiles over "
                       "the runs of each side; change_wins counts pairs the change won")
    bench["environment"] = {"python": platform.python_version(), "numpy": numpy_version,
                            "nproc": os.cpu_count(), "machine": platform.machine()}
    verdict = None
    if args.claim:
        verdict = claim_verdict(entry["metrics"][args.claim], entry["pairs"], entry["failed"])
        bench["claimed"] = {"workload": args.workload, "metric": args.claim, **verdict}
    bench.setdefault("workloads", {})[args.workload] = entry
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump(bench, handle, indent=2)
        handle.write("\n")

    print(f"{'metric':<14}{'parent':>12}{'change':>12}{'ratio':>8}{'wins':>6}{'iqr':>10}{'gap':>10}"
          f"{'in bound':>10}")
    for name, m in entry["metrics"].items():
        ratio = m["change_over_parent"]
        print(f"{name:<14}{m['parent']['median']:>12.5g}{m['change']['median']:>12.5g}"
              f"{ratio if ratio is not None else float('nan'):>8.3f}{m['change_wins']:>6}"
              f"{m['parent_iqr']:>10.4g}{m['median_gap']:>10.4g}{str(m['within_bound']):>10}")
    print(f"correct {entry['correct']}, failed {entry['failed']}, every median within its bound "
          f"{all(m['within_bound'] for m in entry['metrics'].values())}; wrote {args.out}")
    if traced:
        for name in entry["trace"]["parent"]:
            if name.endswith("_us_per_call") and name in entry["trace"]["change"]:
                print(f"traced {name}: {entry['trace']['parent'][name]:.4g} -> "
                      f"{entry['trace']['change'][name]:.4g} us (median over "
                      f"{len(traced)} traced runs per side)")
    if verdict is not None:
        m = entry["metrics"][args.claim]
        print(f"claim {args.claim} on {args.workload}: {'met' if verdict['met'] else 'NOT met'} "
              f"(wins {m['change_wins']}/{entry['pairs']}, median gap {m['median_gap']:.4g} "
              f"vs parent IQR {m['parent_iqr']:.4g}, failed {entry['failed']})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
