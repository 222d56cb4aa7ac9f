"""Run alternating perfbench pairs on two checkouts and record them in a BENCH file.

    python3 tools/bench_pairs.py OLD NEW BENCH_14.json --workload diagnostics --seed 2026 --pairs 4
    python3 tools/bench_pairs.py OLD NEW BENCH_14.json --workload diagnostics --trace

OLD and NEW are checkouts of the parent commit and of the change, for example
``git archive`` of each unpacked side by side.  Each run is
``perfbench/run.py`` in its own checkout, one at a time, for the
``run_seconds`` that NEW's ``BENCHMARK.json`` sets.  Pairs are numbered from 1
per workload and seed, counting the pairs the file already holds: odd pairs
run the parent first, even pairs the change.  The file is rewritten after
every pair, so a second invocation adds pairs to the first's and an
interrupted one keeps what it ran.

The layout is ``BENCH_10.json``'s.  ``end_to_end[workload][seed]`` holds each
side's runs of every end-to-end metric, their median and quartiles (inclusive
method) and the pairs the change won and lost, ties counting for neither; its
``operations`` hold each run's passes, attempted and failed operations.
``--trace`` runs one ``--trace 1`` pair, parent first, into
``traced_seed_<seed>[workload]``.  ``title``, ``parent`` and ``notes`` are
left for the reader to write.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

COMMAND = "python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace {trace}"
METHOD = ("Parent and change checkouts side by side, one run at a time, alternating which side "
          "runs first in each pair (first_in_pair; tools/bench_pairs.py). Medians and quartiles "
          "(inclusive method) over the pairs; change_wins counts pairs where the change is "
          "better, change_losses where it is worse, ties count for neither. operations gives "
          "each run's passes and its attempted and failed operations over all passes.")
SIDES = ("parent", "change")
ORDER = ("title", "parent", "command", "method", "blas_threads", "machine", "notes", "end_to_end")


def run(checkout, workload, seed, seconds, trace):
    """One perfbench run; returns its environment line, pass count and result object."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True, check=False)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.exit(f"bench_pairs: {' '.join(cmd)} in {checkout} exited {proc.returncode}:\n"
                 f"{proc.stderr[-2000:]}")
    env = json.loads(next(line[4:] for line in lines if line.startswith("env ")))
    passes = next((int(m.group(1)) for line in lines
                   if (m := re.match(r"passes (\d+),", line))), 2 if trace else None)
    return env, passes, json.loads(lines[-1])


def summary(runs):
    ordered = sorted(runs)
    if len(ordered) == 1:
        return {"median": ordered[0], "q1": ordered[0], "q3": ordered[0]}
    q1, median, q3 = statistics.quantiles(ordered, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3}


def summarize(entry, specs):
    """Refresh an entry's summaries from its runs."""
    for name, spec in specs.items():
        metric = entry["metrics"][name]
        parent, change = metric["parent_runs"], metric["change_runs"]
        sign = 1.0 if spec["better"] == "higher" else -1.0
        metric["parent"], metric["change"] = summary(parent), summary(change)
        metric["change_wins"] = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        metric["change_losses"] = sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def save(path, record):
    ordered = {key: record[key] for key in ORDER if key in record} | record
    path.write_text(json.dumps(ordered, indent=1, ensure_ascii=False) + "\n")


def machine(env):
    keys = ("cpu", "nproc", "blas", "threads", "python", "numpy", "scipy")
    return {key: env[key] for key in keys}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path, help="OLD: checkout of the parent commit")
    parser.add_argument("change", type=Path, help="NEW: checkout of the change")
    parser.add_argument("out", type=Path, help="BENCH file to create or add to")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=2026)
    parser.add_argument("--pairs", type=int, default=1, help="pairs to add (ignored with --trace)")
    parser.add_argument("--trace", action="store_true", help="run one --trace 1 pair instead")
    args = parser.parse_args(argv)

    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = declared["run_seconds"]
    specs = {m["name"]: {"better": m["better"], "bound": m["bound"]}
             for m in declared["end_to_end"]}
    record = json.loads(args.out.read_text()) if args.out.exists() else {}
    for key, default in (("title", ""), ("parent", ""), ("notes", [])):
        record.setdefault(key, default)
    record["command"] = COMMAND.format(seconds=seconds, trace=0)
    record["method"] = METHOD
    checkouts = {"parent": args.parent, "change": args.change}

    if args.trace:
        traced = {}
        for side in SIDES:
            env, passes, result = run(checkouts[side], args.workload, args.seed, seconds, True)
            traced[side] = (passes, result)
            print(f"traced {args.workload} seed {args.seed} {side}: failed {result['failed']} "
                  f"of {result['attempted']}, correct {result['correct']}", file=sys.stderr)
        layers = {name: {side: traced[side][1]["metrics"][name]["value"] for side in SIDES}
                  for name in traced["parent"][1]["metrics"]}
        record.setdefault(f"traced_seed_{args.seed}", {})[args.workload] = {
            "correct": {side: traced[side][1]["correct"] for side in SIDES},
            "operations": {side: {"passes": traced[side][0],
                                  "attempted": traced[side][1]["attempted"],
                                  "failed": traced[side][1]["failed"]} for side in SIDES},
            "layers": layers,
        }
        save(args.out, record)
        return 0

    entry = record.setdefault("end_to_end", {}).setdefault(args.workload, {}).setdefault(
        str(args.seed), {"pairs": 0, "first_in_pair": [], "all_correct": True,
                         "metrics": {name: dict(spec, parent_runs=[], change_runs=[])
                                     for name, spec in specs.items()},
                         "operations": {side: [] for side in SIDES}})
    for _ in range(args.pairs):
        first = "parent" if entry["pairs"] % 2 == 0 else "change"
        order = SIDES if first == "parent" else SIDES[::-1]
        for side in order:
            env, passes, result = run(checkouts[side], args.workload, args.seed, seconds, False)
            record["blas_threads"] = int(env["threads"]["OPENBLAS_NUM_THREADS"])
            record["machine"] = machine(env)
            entry["all_correct"] &= result["correct"]
            for name in specs:
                entry["metrics"][name][f"{side}_runs"].append(
                    round(result["metrics"][name]["value"], 6))
            entry["operations"][side].append(
                {"passes": passes, "attempted": result["attempted"], "failed": result["failed"]})
            print(f"{args.workload} seed {args.seed} pair {entry['pairs'] + 1} {side}: "
                  f"trials_per_s {result['metrics']['trials_per_s']['value']:.2f}, "
                  f"failed {result['failed']} of {result['attempted']}, "
                  f"correct {result['correct']}", file=sys.stderr)
        entry["pairs"] += 1
        entry["first_in_pair"].append(first)
        summarize(entry, specs)
        save(args.out, record)
    return 0


if __name__ == "__main__":
    sys.exit(main())
