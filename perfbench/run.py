#!/usr/bin/env python3
"""The repository benchmark: the paper pipeline timed end to end and per layer.

Run one measurement (what BENCHMARK.json's command does):

    python3 perfbench/run.py --workload mnist_pipeline --seed 42 --seconds 30 --trace 0

builds perfbench/ (and the library with it) into $CARGO_TARGET_DIR, default
.bench_build, runs the workload, checks its output, writes the full result
with a host fingerprint to <build>/results/, and prints one JSON line:
{"correct", "attempted", "failed", "metrics"}. --trace 0 gives the
end-to-end metrics, --trace 1 the per-layer ones (see perfbench/README.md).

    python3 perfbench/run.py compare OLD NEW     # result files or directories
    python3 perfbench/run.py selftest [--seed 42]

compare refuses results whose host fingerprints differ. selftest proves the
benchmark measures the program quickstart runs: its round loop gives the same
model as Simulation::run, at pool size 1 and N, traced and untraced, and on
mnist_pipeline the same after-AW line as the quickstart example.
"""
import argparse
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
MAX_THREADS = 4
# Pipelines per run, on seeds derived from --seed: the defense's work (prune
# steps, fine-tune rounds) and the final accuracy depend on the seed, and a
# mean over a fixed panel keeps that spread inside the metric bounds. Sized
# to each workload's seed sensitivity within one run-time budget.
PANEL = {"mnist_pipeline": 4, "cifar_dba_pipeline": 6, "fleet_virtual": 2}
SETUPS = 15
MIB = 1024.0 * 1024.0


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    d = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return d if d.is_absolute() else ROOT / d


def n_threads():
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count() or 1
    return max(1, min(MAX_THREADS, nproc))


def child_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("FEDCLEANSE_")}
    env["FEDCLEANSE_LOG"] = "warn"
    return env


def build(targets=("perfbench",)):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src" / "CMakeLists.txt").is_file():
        fail(f"no fedcleanse sources under {ROOT}; run from a full checkout")
    out = build_dir()
    if not (out / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("cmake configure failed")
    cmd = ["cmake", "--build", str(out), "-j", str(n_threads()), "--target", *targets]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        fail("build failed")
    return out


def panel_seeds(workload, seed):
    """--seed itself, then more seeds derived from it by splitmix64."""
    seeds, state = [seed], seed
    mask = (1 << 64) - 1
    for _ in range(PANEL[workload] - 1):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        seeds.append((z ^ (z >> 31)) % 1_000_000_007)
    return seeds


def run_binary(out, args):
    """The binary's records, and whether it exited cleanly. A crash keeps the
    records printed before it."""
    cmd = [str(out / "perfbench"), *args]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr, text=True,
                          env=child_env(), cwd=out)
    if proc.returncode != 0:
        print(f"perfbench: {' '.join(cmd)} exited with {proc.returncode}", file=sys.stderr)
    records = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    return records, proc.returncode == 0


def cpu_ticks():
    """(steal, total) jiffies of the host's CPUs, or None without procfs."""
    try:
        fields = [int(v) for v in Path("/proc/stat").read_text().split("\n", 1)[0].split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def of_kind(records, kind):
    return [r for r in records if r["kind"] == kind]


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_sha():
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
        return proc.stdout.strip() if proc.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def fingerprint(host):
    march = re.search(r"-march=(\S+)", host["cxx_flags"])
    return {
        "cpu_model": cpu_model(),
        "nproc": os.cpu_count(),
        "pool_size": n_threads(),
        "build_type": host["build_type"],
        "march": march.group(1) if march else "default",
        "git_sha": git_sha(),
        "int8_dispatch": host["int8_dispatch"],
    }


# Fingerprint fields that make two results incomparable (git_sha differs by
# design between the two sides of a comparison).
HOST_KEYS = ("cpu_model", "nproc", "pool_size", "build_type", "march", "int8_dispatch")


def check_hashes(out, workload, pipelines):
    """Every pipeline of a seed must end in the same model, in this run and in
    every earlier run of this checkout (traced or not, any pool size)."""
    store = out / "results" / "hashes.json"
    known = json.loads(store.read_text()) if store.is_file() else {}
    ok = True
    for p in pipelines:
        key = f"{workload}:{p['seed']}"
        if known.setdefault(key, p["hash"]) != p["hash"]:
            print(f"perfbench: {key} model hash {p['hash']} != {known[key]}", file=sys.stderr)
            ok = False
    store.parent.mkdir(parents=True, exist_ok=True)
    store.write_text(json.dumps(known, indent=1, sort_keys=True))
    return ok


def sane(p):
    return 0.0 <= p["final_asr"] <= 1.0 and 0.3 <= p["final_ta"] <= 1.0 and p["wire_bytes"] > 0


def per_seed_mean(pipelines, value):
    """Median over a seed's repeats, then mean over the panel."""
    by_seed = {}
    for p in pipelines:
        by_seed.setdefault(p["seed"], []).append(value(p))
    return statistics.fmean(statistics.median(v) for v in by_seed.values())


def end_to_end(records):
    pipes = of_kind(records, "pipeline")
    rounds = [ms for p in pipes for ms in p["round_ms"]]
    values = {
        "setup_s": statistics.median(r["seconds"] for r in of_kind(records, "setup")),
        "train_s": per_seed_mean(pipes, lambda p: p["train_s"]),
        "pipeline_s": per_seed_mean(pipes, lambda p: p["setup_s"] + p["train_s"] + p["defense_s"]),
        "round_p50_ms": statistics.median(rounds),
        "train_samples_per_s": sum(p["train_samples"] for p in pipes) / (sum(rounds) / 1e3),
        "peak_rss_mb": max(r["peak_rss_bytes"] for r in of_kind(records, "end")) / MIB,
        "wire_mb": per_seed_mean(pipes, lambda p: p["wire_bytes"]) / MIB,
        "final_ta": per_seed_mean(pipes, lambda p: p["final_ta"]),
    }
    notes = {"round_samples": len(rounds), "pipelines": len(pipes)}
    return values, notes


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def measure(args):
    spec = load_spec()
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        fail(f"unknown workload {args.workload}")
    out = build()
    base = ["--workload", args.workload, "--threads", str(n_threads())]
    ticks_before = cpu_ticks()
    if args.trace:
        trace_dir = out / "results" / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        trace = trace_dir / f"{args.workload}-seed{args.seed}.json"
        records, clean = run_binary(out, [*base, "--seed", str(args.seed), "--traced", str(trace)])
        if not clean:
            fail("traced run crashed", 1)
        values = of_kind(records, "layers")[0]["metrics"]
        listed = spec["per_layer"]
        notes = {"trace": str(trace), "self_time": str(trace) + ".self.json"}
    else:
        # One process per pipeline, as a quickstart user runs it: a crash
        # costs that pipeline and marks the run incorrect. Whole panel cycles
        # until --seconds has passed; stop before a cycle that would not fit.
        seeds = panel_seeds(args.workload, args.seed)
        records, clean = run_binary(out, [*base, "--seed", str(args.seed),
                                          "--setups", str(SETUPS), "--pipelines", "0"])
        crashed = 0 if clean else 1
        start = time.monotonic()
        while True:
            cycle_start = time.monotonic()
            for seed in seeds:
                recs, clean = run_binary(out, [*base, "--seed", str(seed)])
                records += recs
                crashed += 0 if clean else 1
            now = time.monotonic()
            if now - start + (now - cycle_start) > args.seconds:
                break
        if not of_kind(records, "pipeline") or not of_kind(records, "setup"):
            fail("no pipeline completed", 1)
        values, notes = end_to_end(records)
        notes["crashed_processes"] = crashed
        listed = spec["end_to_end"]
    ticks_after = cpu_ticks()
    if ticks_before and ticks_after and ticks_after[1] > ticks_before[1]:
        # CPU time the hypervisor gave to other guests: explains slow runs.
        stolen = ticks_after[0] - ticks_before[0]
        notes["steal_share"] = stolen / (ticks_after[1] - ticks_before[1])
    pipes = of_kind(records, "pipeline")
    correct = check_hashes(out, args.workload, pipes) and all(sane(p) for p in pipes)
    correct = correct and not notes.get("crashed_processes")
    units = {m["name"]: m["unit"] for m in listed}
    if set(values) != set(units):
        print(f"perfbench: metrics {sorted(set(values) ^ set(units))} missing or extra",
              file=sys.stderr)
        correct = False
    # A crashed process counts as one more attempted (and failed) operation.
    attempted = sum(p["reports_expected"] for p in pipes) + notes.get("crashed_processes", 0)
    failed = attempted if not correct else sum(p["reports_failed"] for p in pipes)
    result = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fingerprint": fingerprint(of_kind(records, "host")[0]),
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": units[k]} for k in units if k in values},
        "notes": notes,
        "pipelines": [{k: p[k] for k in p if k != "round_ms"} for p in pipes],
    }
    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(result, indent=1))
    print(f"perfbench: {notes}; full result in {path}", file=sys.stderr)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


def load_results(path):
    path = Path(path)
    files = sorted(path.glob("*-trace0.json")) if path.is_dir() else [path]
    return [json.loads(f.read_text()) for f in files]


def compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("old")
    ap.add_argument("new")
    a = ap.parse_args(argv)
    spec = load_spec()
    old, new = load_results(a.old), load_results(a.new)
    if not old or not new:
        fail("nothing to compare")
    hosts = {json.dumps({k: r["fingerprint"][k] for k in HOST_KEYS}, sort_keys=True)
             for r in old + new}
    if len(hosts) != 1:
        fail("results come from different hosts or builds; refusing to compare:\n  "
             + "\n  ".join(sorted(hosts)), 3)
    worse = 0
    for w in spec["workloads"]:
        for m in spec["end_to_end"]:
            a_vals = [r["metrics"][m["name"]]["value"] for r in old if r["workload"] == w["name"]]
            b_vals = [r["metrics"][m["name"]]["value"] for r in new if r["workload"] == w["name"]]
            if not a_vals or not b_vals:
                continue
            a_med, b_med = statistics.median(a_vals), statistics.median(b_vals)
            change = (b_med - a_med) / a_med
            regress = change > m["bound"] if m["better"] == "lower" else -change > m["bound"]
            worse += regress
            print(f"{w['name']:20s} {m['name']:20s} {a_med:12.5g} -> {b_med:12.5g} "
                  f"{change:+7.1%} (n={len(a_vals)}/{len(b_vals)}, bound {m['bound']:.0%})"
                  + ("  WORSE" if regress else ""))
    return 1 if worse else 0


def selftest(argv):
    ap = argparse.ArgumentParser(prog="run.py selftest")
    ap.add_argument("--seed", type=int, default=42)
    a = ap.parse_args(argv)
    out = build(("perfbench", "quickstart"))
    seed, threads, ok = str(a.seed), str(n_threads()), True
    trace_dir = out / "results" / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    for w in [w["name"] for w in load_spec()["workloads"]]:
        runs = {
            "loop": ["--threads", threads],
            "Simulation::run": ["--threads", threads, "--simulation-run"],
            "pool size 1": ["--threads", "1"],
            "traced": ["--threads", threads, "--traced", str(trace_dir / f"selftest-{w}.json")],
        }
        pipes = {}
        for name, extra in runs.items():
            recs, clean = run_binary(out, ["--workload", w, "--seed", seed, *extra])
            ok &= clean
            pipes[name] = of_kind(recs, "pipeline")
        hashes = {name: {p["hash"] for p in ps} for name, ps in pipes.items()}
        same = len(set().union(*hashes.values())) == 1
        ok &= same
        print(f"{w}: {'same model' if same else 'MODELS DIFFER'} {hashes}")
        if w == "mnist_pipeline":
            p = pipes["loop"][0]
            quickstart = out / "fedcleanse" / "examples" / "quickstart"
            q = subprocess.run([str(quickstart), seed], capture_output=True, text=True,
                               env=child_env(), cwd=out)
            line = next((l for l in q.stdout.splitlines() if "after AW" in l), "")
            mine = (f"after AW     {p['final_ta']:.3f}   {p['final_asr']:.3f}   "
                    f"({p['weights_zeroed']} weights zeroed")
            got_np = re.search(r"\((\d+) neurons pruned\)", q.stdout)
            match = line.strip().startswith(mine) and got_np is not None and \
                int(got_np.group(1)) == p["neurons_pruned"]
            ok &= match
            print(f"quickstart: {line.strip()!r} vs benchmark {mine!r}, "
                  f"{p['neurons_pruned']} neurons: {'match' if match else 'MISMATCH'}")
    print("selftest " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        return compare(sys.argv[2:])
    if len(sys.argv) > 1 and sys.argv[1] == "selftest":
        return selftest(sys.argv[2:])
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return measure(ap.parse_args())


if __name__ == "__main__":
    sys.exit(main())
