#!/usr/bin/env python3
"""Build a BENCH_<N>.json: the benchmark run on a parent and a change, side by side.

    python3 tools/bench_pairs.py --parent REV [--change REV] --out BENCH_N.json
        [--pairs 10] [--seed 7] [--extra WORKLOAD:SEED ...] [--what TEXT]

Each revision is exported with `git archive` into its own temporary
directory, so the runs see committed files only, as the benchmark does.
The command, run length, workloads and end-to-end metrics come from the
parent's BENCHMARK.json. In order, the tool runs:
  digests  every workload for 3 s on seeds 1 and 7, one run a side, and
           keeps each run's `digest sha256:` line;
  traces   every workload for 3 s with --trace 1 on seed 1, three runs a
           side, alternating which side runs first;
  pairs    --pairs alternating pairs of full-length runs per workload on
           --seed; pair i runs the parent first when i is even;
  extra    the same pairs for each --extra WORKLOAD:SEED, e.g. a second
           seed for a claimed gain, or a second set for a noisy workload;
  one_shot 25 rounds of fresh processes, alternating which side goes
           first: `import pdws`, a 2-gadget `pdws watermark --n 5792` and
           `pdws detect --known-offset 0` on that side's own output, each
           timed in wall seconds, with keys from one `pdws keygen` a side;
  tier1    the tests of each side, parent, change, change, parent, timed
           in wall seconds.
Each side also gets ROADMAP aim 2's two numbers, under "design": the
lines of its src/pdws/*.py (as `cat src/pdws/*.py | wc -l` counts them)
and the names in its pdws.__all__, read from the literal with ast.
Every run is kept under "runs", and the file is rewritten after each run,
so an interrupted build keeps what it measured. The summary gives, per
workload and metric, each side's median and quartiles, the change's
median over the parent's, the pairs the change won, and whether the
medians differ by more than the parent's quartile spread.

Under "mismatches" the file lists every digest line and every traced
count in which the change differs from the parent, every traced count
that differs between runs of one side, every run of either side that
gave no result or reported `correct: false`, every workload whose
change failed a larger share of its attempts than the parent, and every
one-shot step that exited non-zero or whose output differs between
sides. The tool exits 1 when that list is not empty, so a change meant
to keep its outputs, or whose runs crash, fails loudly.

The tool imports nothing from the program; it only runs it.
"""

from __future__ import annotations

import argparse
import ast
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

DIGEST_SEEDS = (1, 7)
TRACE_SEED = 1
TRACE_RUNS = 3
SHORT_S = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors",
         "-p", "no:cacheprovider"]
TIER1_RUNS = 2  # a side
QUARTILES = "statistics.quantiles(values, n=4, method='inclusive')"
ONE_SHOT_ROUNDS = 25
ONE_SHOT_KEYGEN = ["-m", "pdws.cli", "keygen", "secret.json", "public.json",
                   "--seed", "7", "--salt-seed", "00ff"]
ONE_SHOT = {  # step: its arguments to the interpreter; detect reads watermark's stdout
    "import_pdws": ["-c", "import pdws"],
    "watermark_2_gadgets": ["-m", "pdws.cli", "watermark", "--key", "secret.json",
                            "--seed", "3", "--n", "5792"],
    "detect_known_offset": ["-m", "pdws.cli", "detect", "--public", "public.json",
                            "--known-offset", "0", "-"],
}


def spread(values: list) -> dict:
    """Median, first and third quartile, and count of values."""
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def compare(parent: list, change: list, better: str) -> dict:
    """One metric over pairs: parent[i] and change[i] ran side by side."""
    p, c = spread(parent), spread(change)
    sign = -1 if better == "lower" else 1
    wins = sum(sign * (b - a) > 0 for a, b in zip(parent, change))
    return {
        "parent": p,
        "change": c,
        "change_over_parent_median": c["median"] / p["median"] if p["median"] else None,
        "change_wins": "%d of %d" % (wins, len(parent)),
        "beyond_parent_quartiles": abs(c["median"] - p["median"]) > p["q3"] - p["q1"],
        "better": better,
        "parent_runs": parent,
        "change_runs": change,
    }


def summarize(runs: list, end_to_end: list) -> dict:
    """Per workload, each end-to-end metric compared over its pairs, plus totals."""
    out = {}
    for workload in dict.fromkeys(r["workload"] for r in runs):
        sides = {
            side: sorted((r for r in runs if r["workload"] == workload and r["side"] == side
                          and r.get("result")), key=lambda r: r["pair"])
            for side in ("parent", "change")
        }
        pairs = sorted({r["pair"] for r in sides["parent"]} & {r["pair"] for r in sides["change"]})
        kept = {s: [r for r in rs if r["pair"] in pairs] for s, rs in sides.items()}
        if not pairs:
            continue
        entry = {
            m["name"]: compare(
                *([r["result"]["metrics"][m["name"]]["value"] for r in kept[s]]
                  for s in ("parent", "change")),
                m["better"],
            )
            for m in end_to_end
        }
        for key in ("failed", "attempted"):
            entry[key] = {s: sum(r["result"][key] for r in rs) for s, rs in kept.items()}
        out[workload] = entry
    return out


def traced(runs: list) -> tuple[dict, dict, list]:
    """Traced counts (equal within a side), timings by median, and counts that differ."""
    counts, times, differ = {}, {}, []
    for r in runs:
        for name, metric in r["result"]["metrics"].items():
            timing = metric["unit"] == "s" or name.startswith("trace.")
            group = times if timing else counts
            slot = group.setdefault(r["workload"], {}).setdefault(name, {})
            slot.setdefault(r["side"], []).append(metric["value"])
    for workload, metrics in counts.items():
        for name, sides in metrics.items():
            for side, values in sides.items():
                if len(set(values)) > 1:
                    differ.append("%s %s %s: %s" % (workload, name, side, values))
                sides[side] = values[0]
    for metrics in times.values():
        for sides in metrics.values():
            for side, values in sides.items():
                sides[side] = {"median": statistics.median(values), "runs": values}
    return counts, times, differ


def mismatches(digests: dict, counts: dict, differ: list) -> list:
    """Digests and traced counts in which the change's differ from the parent's, then differ."""
    out = ["%s %s digest: parent %s, change %s" % (seed, workload, sides.get("parent"),
                                                   sides.get("change"))
           for seed, workloads in digests.items() for workload, sides in workloads.items()
           if len(sides) == 2 and sides["parent"] != sides["change"]]
    out += ["%s %s: parent %s, change %s" % (workload, name, sides["parent"], sides["change"])
            for workload, metrics in counts.items() for name, sides in metrics.items()
            if len(sides) == 2 and sides["parent"] != sides["change"]]
    return out + differ


def failures(runs: list) -> list:
    """Benchmark runs with no result or a wrong one, then workloads the change fails more."""
    runs = [r for r in runs if "result" in r]  # tier-1 runs have none
    out = ["%s %s seed %s %s pair %s: no result (exit %s)" % (
        r["purpose"], r["workload"], r["seed"], r["side"], r["pair"], r["returncode"])
        for r in runs if not r["result"]]
    out += ["%s %s seed %s %s pair %s: correct false" % (
        r["purpose"], r["workload"], r["seed"], r["side"], r["pair"])
        for r in runs if r["result"] and not r["result"]["correct"]]
    rates = {}  # workload -> side -> [failed, attempted]
    for r in runs:
        if r["result"]:
            rate = rates.setdefault(r["workload"], {}).setdefault(r["side"], [0, 0])
            rate[0] += r["result"]["failed"]
            rate[1] += r["result"]["attempted"]
    for workload, sides in rates.items():
        (pf, pa), (cf, ca) = sides.get("parent", (0, 0)), sides.get("change", (0, 0))
        if cf * pa > pf * ca:  # cf / ca > pf / pa, with no division by zero
            out.append("%s failed: parent %d of %d, change %d of %d" % (workload, pf, pa, cf, ca))
    return out


def one_shot_commands(keygen: list, steps: dict, rounds: int) -> str:
    """The one-shot rounds described with shell-quoted commands, for the file's "commands"."""
    return ("in a directory holding `%s` keys, %d rounds, round i runs the parent first when "
            "i is even: %s; detect's `-` input is that round's watermark stdout" % (
                shlex.join(["python3"] + keygen), rounds,
                "; ".join("%s: %s" % (step, shlex.join(["python3"] + argv))
                          for step, argv in steps.items())))


def one_shot_summary(runs: list) -> tuple[dict, list]:
    """Per one-shot step, wall seconds compared over complete rounds; then its faults.

    A fault is a step that exited non-zero, or whose stdout on the change
    differs from the parent's in the same round.
    """
    sides = {side: {r["pair"]: r["steps"] for r in runs if r["side"] == side}
             for side in ("parent", "change")}
    rounds = sorted(set(sides["parent"]) & set(sides["change"]))
    if not rounds:
        return {}, []
    summary, faults = {}, []
    for step in ONE_SHOT:
        summary[step] = compare(*([sides[s][i][step]["wall_s"] for i in rounds]
                                  for s in ("parent", "change")), "lower")
        for i in rounds:
            parent, change = sides["parent"][i][step], sides["change"][i][step]
            faults += ["one_shot %s round %d %s: exit %d" % (step, i, side, run["returncode"])
                       for side, run in (("parent", parent), ("change", change))
                       if run["returncode"]]
            if parent["stdout_sha256"] != change["stdout_sha256"]:
                faults.append("one_shot %s round %d: change output differs" % (step, i))
    return summary, faults


def one_shot_round(tree: Path, work: Path) -> dict:
    """Each ONE_SHOT step as a fresh process in work: wall seconds, exit code, stdout hash."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    steps, stdout = {}, b""
    for step, argv in ONE_SHOT.items():
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *argv], cwd=work, env=env, capture_output=True,
                              input=stdout if argv[-1] == "-" else None, timeout=600)
        steps[step] = {"wall_s": time.perf_counter() - start, "returncode": proc.returncode,
                       "stdout_sha256": hashlib.sha256(proc.stdout).hexdigest()}
        stdout = proc.stdout
    return steps


def design_numbers(tree: Path) -> dict:
    """Source lines of tree's src/pdws/*.py, and the length of its pdws.__all__ literal."""
    package = tree / "src" / "pdws"
    lines = sum(p.read_bytes().count(b"\n") for p in package.glob("*.py"))
    module = ast.parse((package / "__init__.py").read_bytes())
    exported = next(ast.literal_eval(node.value) for node in module.body
                    if isinstance(node, ast.Assign)
                    and any(getattr(t, "id", None) == "__all__" for t in node.targets))
    return {"source_lines": lines, "exported_names": len(exported)}


def export(rev: str, root: Path) -> tuple[str, Path]:
    """The commit rev names, and a directory holding its files."""
    sha = subprocess.run(["git", "rev-parse", "--verify", rev + "^{commit}"], check=True,
                         capture_output=True, text=True).stdout.strip()
    target = Path(tempfile.mkdtemp(prefix=sha[:12] + "-", dir=root))
    archive = subprocess.Popen(["git", "archive", sha], stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", str(target)], stdin=archive.stdout, check=True)
    if archive.wait():
        raise SystemExit("git archive %s failed" % rev)
    return sha, target


def run_bench(command: list, tree: Path, workload: str, seed: int, seconds: float,
              trace: int) -> dict:
    """One benchmark run in tree: its digest line, exit code, wall time and result."""
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", "%g" % seconds, "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(args, cwd=tree, capture_output=True, text=True,
                          timeout=4 * seconds + 600)
    wall = time.perf_counter() - start
    lines = proc.stdout.splitlines()
    result = None
    if proc.returncode == 0 and lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            pass
    return {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "command": " ".join(args),
        "digest": next((ln for ln in lines if ln.startswith("digest sha256:")), None),
        "returncode": proc.returncode, "wall_s": wall, "result": result,
        "stderr": proc.stderr[-2000:],
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", required=True)
    parser.add_argument("--change", default="HEAD")
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--extra", action="append", default=[], metavar="WORKLOAD:SEED")
    parser.add_argument("--what", default="")
    args = parser.parse_args(argv)
    extra = [(w, int(s)) for w, s in (e.rsplit(":", 1) for e in args.extra)]

    root = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        parent_sha, parent = export(args.parent, root)
        change_sha, change = export(args.change, root)
        spec = json.loads((parent / "BENCHMARK.json").read_text())
        command, e2e = spec["command"], spec["end_to_end"]
        seconds = spec["run_seconds"]
        workloads = [w["name"] for w in spec["workloads"]]
        trees = {"parent": parent, "change": change}
        runs: list = []
        doc = {
            "what": args.what,
            "parent": parent_sha,
            "change": change_sha,
            "machine": "%d CPUs, Python %s, %s" % (
                os.cpu_count(), platform.python_version(), platform.platform()),
            "commands": {
                "digest": "%s --workload W --seed S --seconds %d --trace 0, S in %s"
                          % (" ".join(command), SHORT_S, " and ".join(map(str, DIGEST_SEEDS))),
                "trace": "%s --workload W --seed %d --seconds %d --trace 1 (%d runs a side, "
                         "alternating which side runs first)"
                         % (" ".join(command), TRACE_SEED, SHORT_S, TRACE_RUNS),
                "pairs": "%s --workload W --seed %d --seconds %g --trace 0 (%d pairs per "
                         "workload, pair i runs the parent first when i is even)"
                         % (" ".join(command), args.seed, seconds, args.pairs),
                "extra": ["%s on seed %d, as pairs" % e for e in extra],
                "one_shot": one_shot_commands(ONE_SHOT_KEYGEN, ONE_SHOT, ONE_SHOT_ROUNDS),
                "tier1": "PYTHONPATH=src %s (alternating, %d a side)"
                         % (" ".join(["python"] + TIER1[1:]), TIER1_RUNS),
            },
            "quartiles": QUARTILES,
            "design": {side: design_numbers(tree) for side, tree in trees.items()},
        }

        def by(purpose):
            return [r for r in runs if r["purpose"] == purpose]

        def record(purpose, side, pair=None, **fields):
            fields.update(purpose=purpose, side=side, pair=pair)
            runs.append(fields)
            doc["summary"] = summarize(by("pairs"), e2e)
            doc["extra"] = {
                "%s seed %d" % e: summarize(
                    [r for r in by("extra") if (r["workload"], r["seed"]) == e], e2e
                ).get(e[0])
                for e in extra
            }
            doc["digests"] = {}
            for r in by("digest"):
                seeds = doc["digests"].setdefault("seed %d" % r["seed"], {})
                seeds.setdefault(r["workload"], {})[r["side"]] = r["digest"]
            counts, times, differ = traced([r for r in by("trace") if r["result"]])
            doc["traced_counts_seed1"], doc["traced_self_s_seed1"] = counts, times
            doc["one_shot"], one_shot_faults = one_shot_summary(by("one_shot"))
            doc["mismatches"] = (mismatches(doc["digests"], counts, differ) + failures(runs)
                                 + one_shot_faults)
            doc["tier1"] = {s: [r["summary"] for r in by("tier1") if r["side"] == s]
                            for s in trees}
            doc["runs"] = runs
            args.out.write_text(json.dumps(doc, indent=1) + "\n")
            print("%s %s %s %s pair=%s rc=%s" % (
                purpose, fields.get("workload", ""), fields.get("seed", ""), side, pair,
                fields.get("returncode")), file=sys.stderr, flush=True)

        def both(purpose, workload, seed, secs, trace, pair):
            order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
            for side in order:
                record(purpose, side, pair, order=order[0] + " first",
                       **run_bench(command, trees[side], workload, seed, secs, trace))

        for seed in DIGEST_SEEDS:
            for workload in workloads:
                both("digest", workload, seed, SHORT_S, 0, 0)
        for workload in workloads:
            for i in range(TRACE_RUNS):
                both("trace", workload, TRACE_SEED, SHORT_S, 1, i)
        for workload in workloads:
            for i in range(args.pairs):
                both("pairs", workload, args.seed, seconds, 0, i)
        for workload, seed in extra:
            for i in range(args.pairs):
                both("extra", workload, seed, seconds, 0, i)
        work = {side: root / ("one-shot-" + side) for side in trees}
        for side, tree in trees.items():
            work[side].mkdir()
            subprocess.run([sys.executable, *ONE_SHOT_KEYGEN], cwd=work[side], check=True,
                           env=dict(os.environ, PYTHONPATH=str(tree / "src")))
        for i in range(ONE_SHOT_ROUNDS):
            for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
                record("one_shot", side, i, steps=one_shot_round(trees[side], work[side]))
        for i in range(2 * TIER1_RUNS):
            side = ("parent", "change")[(i + 1) // 2 % 2]  # parent, change, change, parent
            env = dict(os.environ, PYTHONPATH="src")
            start = time.perf_counter()
            proc = subprocess.run(TIER1, cwd=trees[side], env=env, capture_output=True,
                                  text=True, timeout=3600)
            tail = proc.stdout.strip().splitlines()[-1:] or [""]
            record("tier1", side, i, returncode=proc.returncode,
                   wall_s=time.perf_counter() - start, summary=tail[0].strip("= "))
    finally:
        shutil.rmtree(root, ignore_errors=True)
    for line in doc["mismatches"]:
        print("mismatch: " + line, file=sys.stderr)
    return 1 if doc["mismatches"] else 0


if __name__ == "__main__":
    sys.exit(main())
