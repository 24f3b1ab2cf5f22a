#!/usr/bin/env python3
"""Run the alternating-pair benchmark protocol between two revisions.

Usage, from anywhere inside the repository:

    python3 scripts/bench_pairs.py --parent <rev> --change <rev> \\
        --workloads single-ba20k,exact-grid150 --seeds 701-710 \\
        --workdir <dir> --out BENCH_<topic>.json [--seconds 30] [--traced-seed <n>]

Each revision is checked out once into <workdir>/parent and <workdir>/change
(local clones that share the repository's objects; an existing checkout is
reset to the commit and reused, so perfbench's build cache survives re-runs).
For every workload and seed, pair k runs `perfbench/run.py` on both sides
back to back, the parent first when k is even and the change first when k
is odd. The output JSON holds the protocol, host and both revisions, and a
`workloads` section with every pair's metrics and, for each gated metric of
BENCHMARK.json, both sides' median and inclusive quartiles, the pairs the
change won (ties count for neither side), the relative change of the
median, the absolute gap between the medians and the parent's IQR. With
--traced-seed, one `--trace 1` run per side and workload is added under
`traced_seed_<n>`. The file is rewritten after every pair, so an interrupted
run keeps what it measured.

The script only reads perfbench/ and BENCHMARK.json; it needs nothing
beyond the Python standard library, git and what perfbench/run.py needs.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = subprocess.run(["git", "rev-parse", "--show-toplevel"], capture_output=True, text=True,
                      cwd=os.path.dirname(os.path.abspath(__file__)), check=True).stdout.strip()
RECORD_PREFIX = "perfbench-record "
PAIR_FIELDS = ["query_s.tail", "rel_err.p50", "failed_frac"]


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, capture_output=True, text=True,
                          check=True).stdout.strip()


def checkout(rev, path):
    """A clone of this repository at `rev` in `path`, reused when it is already there."""
    sha = git("rev-parse", "--verify", rev + "^{commit}")
    if not os.path.isdir(os.path.join(path, ".git")):
        git("clone", "--quiet", "--shared", "--no-checkout", ROOT, path)
    # --force: a fresh --no-checkout clone may already have HEAD at `sha` but
    # no files, and edits in a reused checkout must not reach the benchmark.
    git("checkout", "--quiet", "--force", "--detach", sha, cwd=path)
    return sha


def run(path, workload, seed, seconds, trace):
    """One perfbench run in checkout `path`: the parsed full record."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, cwd=path, capture_output=True, text=True, stdin=subprocess.DEVNULL)
    lines = proc.stdout.splitlines()
    records = [l for l in lines if l.startswith(RECORD_PREFIX)]
    if proc.returncode != 0 or not records:
        sys.stderr.write(proc.stdout[-5000:] + proc.stderr[-5000:])
        sys.exit(f"bench_pairs: {' '.join(cmd)} failed in {path} (exit {proc.returncode})")
    return json.loads(records[-1][len(RECORD_PREFIX):])


def pair_entry(record, gated):
    e2e = record["end_to_end"]
    prov = record["provenance"]
    out = {k: e2e[k]["value"] for k in gated + PAIR_FIELDS if k in e2e}
    out.update(queries=prov["queries"], failed=record["failed"], attempted=record["attempted"],
               host_steal_share=prov["host_steal_share"])
    return out


def quartiles(xs):
    """(q1, median, q3), inclusive method (linear interpolation)."""
    if len(xs) == 1:
        return xs[0], xs[0], xs[0]
    q1, med, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, med, q3


def summary(pairs, gated, better):
    out = {}
    for k in gated:
        p = [x["parent"][k] for x in pairs]
        c = [x["change"][k] for x in pairs]
        pq1, pmed, pq3 = quartiles(p)
        cq1, cmed, cq3 = quartiles(c)
        sign = 1 if better[k] == "higher" else -1
        out[k] = {
            "parent": {"median": pmed, "q1": pq1, "q3": pq3},
            "change": {"median": cmed, "q1": cq1, "q3": cq3},
            "pairs_won_by_change": sum(1 for a, b in zip(p, c) if sign * (b - a) > 0),
            "pairs": len(pairs),
            "median_change_rel": (cmed - pmed) / pmed if pmed else None,
            "median_gap_abs": abs(cmed - pmed),
            "parent_iqr": pq3 - pq1,
        }
    return out


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi) + 1)) if hi else [int(lo)]
    return seeds


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", required=True)
    ap.add_argument("--change", required=True)
    ap.add_argument("--workloads", required=True, help="comma-separated perfbench workloads")
    ap.add_argument("--seeds", required=True, help="e.g. 701-710 or 701,703,705")
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length; default: BENCHMARK.json's run_seconds")
    ap.add_argument("--workdir", required=True, help="where the two checkouts live")
    ap.add_argument("--out", required=True, help="output JSON, e.g. BENCH_<topic>.json")
    ap.add_argument("--what", default="")
    ap.add_argument("--traced-seed", type=int, default=None)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    gated = [m["name"] for m in bench["end_to_end"]]
    better = {m["name"]: m["better"] for m in bench["end_to_end"]}
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    seconds = int(seconds) if float(seconds).is_integer() else seconds
    workloads = args.workloads.split(",")
    seeds = parse_seeds(args.seeds)

    os.makedirs(args.workdir, exist_ok=True)
    paths = {side: os.path.join(os.path.abspath(args.workdir), side) for side in ("parent", "change")}
    shas = {side: checkout(getattr(args, side), paths[side]) for side in paths}

    topic = os.path.splitext(os.path.basename(args.out))[0].removeprefix("BENCH_")
    doc = {
        "topic": topic,
        "what": args.what,
        "command": f"python3 perfbench/run.py --workload <w> --seed <s> --seconds {seconds} --trace 0",
        "protocol": ("Each pair runs parent and change on the same seed, one after the other, each "
                     "from its own checkout of that commit; the parent runs first in even-numbered "
                     "pairs (0-based). Quartiles are inclusive (linear interpolation). A pair is won "
                     "when the change's value is better; ties count for neither side."),
        "host": None,
        "parent": {"git_sha": shas["parent"], "source_sha256": None},
        "change": {"git_sha": shas["change"], "source_sha256": None},
        "workloads": {},
    }

    def save():
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1)
            fh.write("\n")

    for w in workloads:
        entry = doc["workloads"][w] = {"seeds": seeds, "pairs": [], "summary": {}}
        for k, seed in enumerate(seeds):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            pair = {"seed": seed, "first": order[0]}
            for side in order:
                rec = run(paths[side], w, seed, seconds, trace=False)
                prov = rec["provenance"]
                doc[side]["source_sha256"] = prov["source_sha256"]
                doc["host"] = {"cores": prov["host_cores"], "spark_slots": prov["spark_slots"],
                               "jvm": prov["jvm"], "spark_version": prov["spark_version"]}
                pair[side] = pair_entry(rec, gated)
            entry["pairs"].append(pair)
            entry["summary"] = summary(entry["pairs"], gated, better)
            save()
            print(f"{w} seed {seed}: " + ", ".join(
                f"{m} {pair['parent'][m]:.4g} -> {pair['change'][m]:.4g}" for m in gated), flush=True)

    if args.traced_seed is not None:
        traced = doc[f"traced_seed_{args.traced_seed}"] = {}
        for w in workloads:
            traced[w] = {}
            for side in ("parent", "change"):
                rec = run(paths[side], w, args.traced_seed, seconds, trace=True)
                traced[w][side] = {"failed": rec["failed"], "attempted": rec["attempted"],
                                   "per_layer": {k: v["value"] for k, v in rec["per_layer"].items()}}
                save()
    save()


if __name__ == "__main__":
    main()
