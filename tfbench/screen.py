#!/usr/bin/env python3
"""Regenerates tfbench/bank.txt and the matching lines of tfbench/pins.txt.

    python3 tfbench/screen.py

A pass's host time is dominated by a few expensive trials (full-window Gray
trials in trial-heavy, runaway trials in soft-suite), so with the seed fed
straight to the campaigns, ten seeds spread trial-heavy's wall time by an
IQR of 20% of its median and soft-suite's by 14% (figure-suite: 5%). For
each workload in BANKED, this script runs campaign-seed offsets
0..CANDIDATES-1 as traced passes and keeps the KEEP offsets whose cost
proxy lies nearest the median, nearest first. The proxy is the simulated
cycles of non-shortcut trials plus the instructions soft trials execute:
deterministic counts, so the bank does not depend on host speed.

run.py gives benchmark seed s the kept offset number s % KEEP; seed 0 runs
the first, whose digests this script writes to pins.txt. Regenerate the
bank when a change to the model, the classifier or a workload changes the
pinned digests.
"""
import time

import run

BANKED = ("trial-heavy", "soft-suite")
CANDIDATES = 128
KEEP = 32  # more than the runs one benchmark evaluation makes per workload

HEADER = """\
# Campaign-seed offsets of the banked workloads, nearest the median cost
# first; regenerate with python3 tfbench/screen.py. Benchmark seed s runs
# offset number s % count of its workload's line.
"""


def cost(spans):
    total = 0
    for s in spans:
        if s["name"] == "trial" and not s["attrs"]["fast"]:
            total += s["attrs"]["cycles"]
        elif s["name"] == "soft.trial":
            total += s["attrs"]["insns"]
    return total


def screen(exe, workload):
    """The kept offsets of `workload`, and {label: digest} at the first."""
    costs, digests = [], []
    jobs = ["--jobs", "4"] if workload != "soft-suite" else []
    for k in range(CANDIDATES):
        res = run.run_pass(
            exe, ["--workload", workload, "--offset", str(k), "--traced"]
            + jobs, run.build_dir() / "screen",
            time.monotonic() + run.RUN_TIMEOUT_S)
        costs.append(cost(res["spans"]))
        digests.append({r["label"]: r["digest"] for r in res["requests"]})
    mid = run.median(costs)
    kept = sorted(range(CANDIDATES),
                  key=lambda k: (abs(costs[k] - mid), k))[:KEEP]
    print(f"{workload}: median cost {mid:.0f}, kept "
          f"{min(costs[k] for k in kept)}..{max(costs[k] for k in kept)} "
          f"of {min(costs)}..{max(costs)}")
    return kept, digests[kept[0]]


def main():
    exe = run.build()
    bank, pins = [], {}
    for w in BANKED:
        kept, pins[w] = screen(exe, w)
        bank.append(" ".join([w] + [str(k) for k in kept]) + "\n")
    (run.HERE / "bank.txt").write_text(HEADER + "".join(bank))
    path = run.HERE / "pins.txt"
    lines = []
    for line in path.read_text().splitlines():
        f = line.split()
        if len(f) == 3 and f[0] in pins:
            line = f"{f[0]} {f[1]} {pins[f[0]][f[1]]}"
        lines.append(line + "\n")
    path.write_text("".join(lines))


if __name__ == "__main__":
    main()
