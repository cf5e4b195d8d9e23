#!/usr/bin/env python3
"""tfsim's benchmark: one workload, one seed, a closed loop of passes.

    python3 tfbench/run.py --workload trial-heavy --seed 1 --seconds 35 --trace 0

Builds tfbench_pass from this checkout's sources, then runs passes of the
workload back to back (one caller; each pass is a fresh tfbench_pass process with
a private, empty results cache) until --seconds have elapsed. --trace 0
prints the end-to-end metrics; --trace 1 alternates untraced and traced
passes and prints the per-layer metrics from the traced ones. The last line
of stdout is one JSON object; the exit code is 0 only when every pass
reproduced the expected campaign digests. See tfbench/README.md.
"""
import argparse
import collections
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("trial-heavy", "figure-suite", "soft-suite")
SOFT_MODELS = ("reg-bit-32", "reg-bit-64", "reg-random-64", "insn-bit",
               "to-nop", "branch-flip")  # SoftFaultModel order
SETUP_PROBES = 50
RUN_TIMEOUT_S = 170

END_TO_END = {"wall_s": "s", "trials_per_s": "1/s", "peak_rss_mb": "MB",
              "setup_s": "s"}
PER_LAYER = {
    "golden.s": "s", "golden.cycles": "count", "golden.ns_per_cycle": "ns",
    "golden.warmup_repeat_ratio": "ratio",
    "trial.shortcut.n": "count", "trial.shortcut.s": "s",
    "trial.early.n": "count", "trial.early.s": "s",
    "trial.full_window.n": "count", "trial.full_window.s": "s",
    "trial.full_window.share": "ratio", "trial.sim_cycles": "count",
    "trial.ns_per_cycle": "ns", "trial.p50_us": "us", "trial.p99_us": "us",
    "trial.quarantined": "count",
    "campaign.plan_s": "s", "campaign.self_s": "s", "campaign.loop_s": "s",
    "campaign.worker_idle_s": "s",
    "cache.hits": "count", "cache.misses": "count", "cache.key_s": "s",
    "cache.load_s": "s", "cache.store_s": "s",
    "obs.events": "count", "obs.events_dropped": "count",
    "obs.jsonl_bytes": "bytes",
    "soft.trials": "count", "soft.s": "s", "soft.ms_per_trial": "ms",
    **{f"soft.{m}.ms_per_trial": "ms" for m in SOFT_MODELS},
    "arch.reference_s": "s", "arch.ns_per_insn": "ns",
    "uarch.core_s": "s",
    "trace.overhead_s": "s",
}


# --- statistics --------------------------------------------------------------

def quantile(values, q):
    """Linearly interpolated quantile, q in [0, 1]."""
    xs = sorted(values)
    if not xs:
        raise ValueError("quantile of no values")
    pos = q * (len(xs) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def median(values):
    return quantile(values, 0.5)


def pass_wall(passes):
    """Wall time of one pass with host noise filtered out: the sum over the
    pass's requests of each request's median duration across `passes`.
    A burst of host load slows a few requests of one pass, and the
    per-request median drops it where a median of whole passes could not."""
    return sum(median([p["requests"][i]["s"] for p in passes])
               for i in range(len(passes[0]["requests"])))


def percentile(values, p):
    """The p-th percentile, or None when fewer than ten samples lie beyond
    it: a tail percentile is only reported with ten samples past it."""
    if round(len(values) * (100.0 - p) / 100.0, 6) < 10:
        return None
    return quantile(values, p / 100.0)


# --- spans -------------------------------------------------------------------

def self_times(spans):
    """Span id -> self time in ns: the span's duration minus the part of it
    that the union of its children's intervals covers."""
    children = collections.defaultdict(list)
    for s in spans:
        children[s["parent"]].append(s)
    out = {}
    for s in spans:
        ivs = sorted((max(c["t0"], s["t0"]), min(c["t1"], s["t1"]))
                     for c in children.get(s["id"], ()))
        covered, start, end = 0, None, None
        for a, b in ivs:
            if b <= a:
                continue
            if end is None or a > end:
                if end is not None:
                    covered += end - start
                start, end = a, b
            else:
                end = max(end, b)
        if end is not None:
            covered += end - start
        out[s["id"]] = (s["t1"] - s["t0"]) - covered
    return out


def layer_metrics(spans):
    """Per-layer metrics of one traced pass: every PER_LAYER key the spans
    give. A layer the workload never enters reads 0."""
    by = collections.defaultdict(list)
    for s in spans:
        by[s["name"]].append(s)

    def dur(s):
        return (s["t1"] - s["t0"]) / 1e9

    def total(name):
        return sum(dur(s) for s in by[name])

    def ratio(a, b):
        return a / b if b else 0.0

    m = {}
    golden = by["golden"]
    m["golden.s"] = total("golden")
    m["golden.cycles"] = sum(s["attrs"]["cycles"] for s in golden)
    m["golden.ns_per_cycle"] = ratio(m["golden.s"] * 1e9, m["golden.cycles"])
    m["golden.warmup_repeat_ratio"] = ratio(
        sum(s["attrs"]["warmup"] for s in golden
            if s["attrs"]["warmup_repeat"]),
        sum(s["attrs"]["warmup"] for s in golden))

    loops = {s["id"]: s for s in by["campaign.loop"]}
    classes = {"shortcut": [], "early": [], "full_window": []}
    for t in by["trial"]:
        a = t["attrs"]
        if a["fast"]:
            classes["shortcut"].append(t)
        elif a["cycles"] >= loops[t["parent"]]["attrs"]["window"]:
            classes["full_window"].append(t)
        else:
            classes["early"].append(t)
    for c, ts in classes.items():
        m[f"trial.{c}.n"] = len(ts)
        m[f"trial.{c}.s"] = sum(dur(t) for t in ts)
    trial_s = sum(m[f"trial.{c}.s"] for c in classes)
    m["trial.full_window.share"] = ratio(m["trial.full_window.s"], trial_s)
    m["trial.sim_cycles"] = sum(t["attrs"]["cycles"] for t in by["trial"]
                                if not t["attrs"]["fast"])
    m["trial.ns_per_cycle"] = ratio(
        (m["trial.early.s"] + m["trial.full_window.s"]) * 1e9,
        m["trial.sim_cycles"])
    trial_us = [dur(t) * 1e6 for t in by["trial"]]
    m["trial.p50_us"] = percentile(trial_us, 50) or 0.0
    m["trial.p99_us"] = percentile(trial_us, 99) or 0.0
    m["trial.quarantined"] = sum(t["attrs"]["quarantined"]
                                 for t in by["trial"])

    selfs = self_times(spans)
    m["campaign.plan_s"] = total("campaign.plan")
    m["campaign.self_s"] = sum(selfs[s["id"]] for s in by["campaign"]) / 1e9
    m["campaign.loop_s"] = total("campaign.loop")
    busy = collections.Counter()
    for t in by["trial"]:
        busy[t["parent"]] += dur(t)
    m["campaign.worker_idle_s"] = sum(
        s["attrs"]["jobs"] * dur(s) - busy[s["id"]] for s in loops.values())

    m["cache.hits"] = sum(1 for s in by["cache.load"] if s["attrs"]["hit"])
    m["cache.misses"] = len(by["cache.load"]) - m["cache.hits"]
    m["cache.key_s"] = total("cache.key")
    m["cache.load_s"] = total("cache.load")
    m["cache.store_s"] = total("cache.store")

    soft = by["soft.trial"]
    m["soft.trials"] = len(soft)
    m["soft.s"] = total("soft.trial")
    m["soft.ms_per_trial"] = ratio(m["soft.s"] * 1e3, len(soft))
    for i, name in enumerate(SOFT_MODELS):
        ts = [s for s in soft if s["attrs"]["model"] == i]
        m[f"soft.{name}.ms_per_trial"] = ratio(
            sum(dur(s) for s in ts) * 1e3, len(ts))
    m["arch.reference_s"] = total("arch.reference")
    m["arch.ns_per_insn"] = ratio(
        m["arch.reference_s"] * 1e9,
        sum(s["attrs"]["insns"] for s in by["arch.reference"]))
    m["uarch.core_s"] = total("uarch.core")
    return m


# --- build and passes --------------------------------------------------------

def fail(msg, code=2):
    print(f"tfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (d if d.is_absolute() else ROOT / d) / "tfbench"


def build():
    """Configures (once) and builds tfbench_pass; returns its path."""
    if not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no tfsim sources under {ROOT / 'src'}; run from a checkout")
    for var in ("CXXFLAGS", "CFLAGS", "LDFLAGS"):
        if "sanitize" in os.environ.get(var, ""):
            fail(f"refusing to benchmark a sanitizer build ({var})", 3)
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(HERE), "-B", str(out),
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("cmake configure failed", 1)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.run(["cmake", "--build", str(out), "--target",
                       "tfbench_pass", "-j", jobs],
                      stdout=sys.stderr).returncode != 0:
        fail("build failed", 1)
    return out / "tfbench_pass"


def clean_env(cache_dir):
    """The caller's environment minus every TFI_* knob (trial counts, jobs,
    window, checkpointing, timeouts, failpoints...), plus a private cache."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("TFI_")}
    env["TFI_CACHE_DIR"] = str(cache_dir)
    return env


def run_pass(exe, args, work, deadline):
    """Runs tfbench_pass once in a fresh private directory; returns its JSON
    result with "setup_s" (spawn to first timed call) and, for traced
    passes, "spans"."""
    shutil.rmtree(work, ignore_errors=True)
    (work / "cache").mkdir(parents=True)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run([str(exe), "--out", str(work)] + args,
                              stdout=subprocess.PIPE, text=True,
                              env=clean_env(work / "cache"),
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        fail(f"tfbench_pass timed out: {' '.join(args)}", 1)
    if proc.returncode != 0:
        fail(f"tfbench_pass exited {proc.returncode}: {' '.join(args)}", 1)
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = res["t_first"] - t_spawn
    spans = work / "spans.jsonl"
    if spans.is_file():
        with open(spans) as f:
            res["spans"] = [json.loads(line) for line in f]
    shutil.rmtree(work, ignore_errors=True)
    return res


# --- correctness -------------------------------------------------------------

def table(name):
    """The non-comment lines of a tfbench table file, split into fields."""
    with open(HERE / name) as f:
        return [line.split() for line in f
                if line.strip() and not line.startswith("#")]


def load_pins(workload):
    """{request label: pinned digest of the campaigns seed 0 runs}."""
    return {f[1]: f[2] for f in table("pins.txt") if f[0] == workload}


def campaign_offset(workload, seed):
    """The campaign-seed offset benchmark seed `seed` runs: the seed itself,
    or for a workload with a line in bank.txt, that line's offset number
    seed % count (see screen.py)."""
    for f in table("bank.txt"):
        if f[0] == workload:
            return int(f[1 + seed % (len(f) - 1)])
    return seed


def check_pass(res, expected):
    """Failed trials of one pass, and what was wrong. `expected` maps group
    label -> digest; labels not yet in it are adopted from this pass.
    Quarantined trials fail; a request whose digest or record count is wrong
    fails all its trials."""
    failed, problems = 0, []
    for r in res["requests"]:
        want = expected.setdefault(r["label"], r["digest"])
        if r["digest"] != want or r["trials"] != r["requested"]:
            failed += r["requested"]
            problems.append(f"{r['label']}: digest {r['digest']} trials "
                            f"{r['trials']}/{r['requested']}, expected {want}")
        else:
            failed += r["quarantined"]
    if res["workload"] == "figure-suite" and not res["traced"]:
        hits = sum(1 for r in res["requests"] if r["hit"])
        if res["obs"]["cache_hits"] != hits:
            problems.append(f"cache served {res['obs']['cache_hits']} of "
                            f"{hits} repeated requests")
    return failed, problems


# --- main --------------------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    a = ap.parse_args(argv)
    if a.seed < 0:
        ap.error("--seed must be 0 or more")

    start = time.monotonic()
    exe = build()
    deadline = time.monotonic() + RUN_TIMEOUT_S
    work = build_dir() / "passes" / str(os.getpid())

    # Set-up probes: processes that stop at their first timed call.
    probes = [run_pass(exe, ["--workload", a.workload, "--setup-only"],
                       work, deadline) for _ in range(SETUP_PROBES)]
    info = probes[0]  # tfbench_pass itself refuses a sanitizer build
    offset = campaign_offset(a.workload, a.seed)
    print(f"tfbench: workload={a.workload} seed={a.seed} offset={offset} "
          f"build_type={info['build_type']} sanitizer={info['sanitizer']}")

    # The campaigns seed 0 runs have pinned digests, checked whenever a seed
    # runs them; otherwise the first pass sets the digests the others must
    # reproduce.
    pinned = offset == campaign_offset(a.workload, 0)
    pins = load_pins(a.workload) if pinned else {}
    expected = dict(pins)
    passes, attempted, failed, problems = [], 0, 0, []
    kinds = (False,) if a.trace == 0 else (False, True)
    t_loop = time.monotonic()
    while True:
        t_round = time.monotonic()
        for traced in kinds:
            args = ["--workload", a.workload, "--offset", str(offset)]
            res = run_pass(exe, args + (["--traced"] if traced else []),
                           work, deadline)
            f, p = check_pass(res, expected)
            attempted += sum(r["requested"] for r in res["requests"])
            failed += f
            problems += p
            passes.append(res)
        # Stop before a round that would end past --seconds.
        now = time.monotonic()
        if now - t_loop + (now - t_round) > a.seconds:
            break

    labels = list(dict.fromkeys(r["label"] for r in passes[0]["requests"]))
    if pinned and set(labels) != set(pins):
        problems.append(f"tfbench/pins.txt pins {sorted(pins)}, "
                        f"the workload runs {labels}")
    plain = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    wall = pass_wall(plain)
    executed = sum(r["trials"] for r in plain[0]["requests"] if not r["hit"])
    e2e = {
        "wall_s": wall,
        "trials_per_s": executed / wall,
        "peak_rss_mb": median([p["peak_rss_kb"] / 1024 for p in plain]),
        "setup_s": median([p["setup_s"] for p in probes + passes]),
    }
    print(f"tfbench: medians over {len(plain)} untraced passes "
          f"({len(traced)} traced, {SETUP_PROBES} set-up probes)")
    for k, v in e2e.items():
        print(f"  {k:<14} {v:.6g} {END_TO_END[k]}")
    print(f"  {'failed_share':<14} {failed / attempted:.6g} "
          f"({failed} of {attempted} trials)")
    print("  digests: " + " ".join(f"{g}={expected[g]}" for g in labels))
    for p in problems:
        print(f"tfbench: WRONG OUTPUT {p}", file=sys.stderr)

    if a.trace == 0:
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in e2e.items()}
    else:
        layers = [layer_metrics(p["spans"]) for p in traced]
        vals = {k: median([m[k] for m in layers]) for k in layers[0]}
        for k in ("events", "events_dropped", "jsonl_bytes"):
            vals[f"obs.{k}"] = median([p["obs"][k] for p in plain])
        vals["trace.overhead_s"] = pass_wall(traced) - wall
        print(f"  tracing overhead {vals['trace.overhead_s']:.6g} s on "
              f"{e2e['wall_s']:.6g} s untraced")
        metrics = {k: {"value": vals[k], "unit": u}
                   for k, u in PER_LAYER.items()}
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    print(f"tfbench: {time.monotonic() - start:.1f}s in all", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
