#!/usr/bin/env python3
"""Pipeline benchmark: builds the program with the benchmark from source, then
runs one workload in a fresh JVM.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed <n> --seconds <s>

Run from the root of a checkout. The last line of standard output is the
result JSON object. `--workload all` runs every workload untraced and traced,
prints every end-to-end metric with its unit, the tracing overhead and the
fingerprint comparison, and exits non-zero if any check fails. See README.md.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TARGET = HERE / "target"
OUT = HERE / "out"
CLASSPATH = TARGET / "perfbench.classpath"
STAMP = TARGET / "perfbench.stamp"

# The program's sources and the two files of its bench/test trees that the
# benchmark compiles in (see build.sbt).
PROGRAM_SOURCES = [
    ROOT / "src" / "main" / "scala",
    ROOT / "bench" / "src" / "test" / "scala" / "repro" / "bench" / "BenchDatasets.scala",
    ROOT / "src" / "test" / "scala" / "repro" / "SparkSpec.scala",
]
BENCH_SOURCES = [HERE / "src" / "main", HERE / "build.sbt", HERE / "project" / "build.properties"]

WORKLOADS = ["monitor-prep", "monitor-fit", "music-e2e"]
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
# ParallelGC: the fits allocate about 1 GB/s of short-lived matrices, and
# under G1 identical fits varied by about 15% from one iteration to the next
# on 4 cores.
JVM_OPTS = ["-Xmx3g", "-XX:+UseParallelGC"]


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def source_stamp():
    h = hashlib.sha256()
    for root in PROGRAM_SOURCES + BENCH_SOURCES:
        files = sorted(root.rglob("*")) if root.is_dir() else [root]
        for f in files:
            if f.is_file():
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the classpath on disk matches the sources."""
    missing = [p for p in PROGRAM_SOURCES if not p.exists()]
    if missing:
        log("program sources not found: " + ", ".join(str(p.relative_to(ROOT)) for p in missing))
        sys.exit(2)
    stamp = source_stamp()
    if CLASSPATH.exists() and STAMP.exists() and STAMP.read_text() == stamp:
        return CLASSPATH.read_text().strip()
    log("building (sbt compile)")
    t0 = time.time()
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    proc = subprocess.Popen(
        ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
         f"-Djava.io.tmpdir={tmp}", "export Runtime/fullClasspath"],
        cwd=HERE, stdout=subprocess.PIPE, stderr=sys.stderr, stdin=subprocess.DEVNULL,
        text=True, start_new_session=True)
    try:
        stdout, _ = proc.communicate(timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        log(f"build stopped after {BUILD_TIMEOUT_S} s")
        sys.exit(2)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stdout)
        log(f"build failed (exit {proc.returncode})")
        sys.exit(2)
    cp = lines[-1].strip()
    TARGET.mkdir(parents=True, exist_ok=True)
    CLASSPATH.write_text(cp)
    STAMP.write_text(stamp)
    log(f"built in {time.time() - t0:.1f} s")
    return cp


def commit_id():
    try:
        # the ceiling keeps git from finding a repository above the checkout
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        r = subprocess.run(["git", "rev-parse", "--short=12", "HEAD"], cwd=ROOT, env=env,
                           capture_output=True, text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 and r.stdout.strip() else "none"
    except (OSError, subprocess.SubprocessError):
        return "none"


def run_jvm(cp, workload, seed, seconds, trace, epochs, echo):
    """Runs one workload; returns (exit code, stdout lines)."""
    tmp = OUT / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    cmd = ["java", *JVM_OPTS, f"-Djava.io.tmpdir={tmp}", "-cp", cp, "repro.perfbench.Main",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace), "--out", str(OUT), "--commit", commit_id()]
    if epochs is not None:
        cmd += ["--epochs", str(epochs)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=sys.stderr,
                            stdin=subprocess.DEVNULL, text=True, start_new_session=True)
    lines = []
    timed_out = threading.Event()

    def stop():
        timed_out.set()
        os.killpg(proc.pid, signal.SIGKILL)

    watchdog = threading.Timer(RUN_TIMEOUT_S, stop)
    watchdog.start()
    try:
        for line in proc.stdout:
            lines.append(line.rstrip("\n"))
            if echo and not timed_out.is_set():
                print(line, end="", flush=True)
        code = proc.wait()
    except KeyboardInterrupt:
        stop()
        proc.wait()
        raise
    finally:
        watchdog.cancel()
    if timed_out.is_set():
        log(f"{workload}: run stopped after {RUN_TIMEOUT_S} s")
        return 3, lines
    return code, lines


def parse_lines(lines):
    env = report = result = None
    for line in lines:
        try:
            obj = json.loads(line)
        except ValueError:
            continue
        if "env" in obj:
            env = obj["env"]
        elif "report" in obj:
            report = obj["report"]
        elif "metrics" in obj:
            result = obj
    return env, report, result


def run_all(cp, seed, seconds, epochs):
    """Every workload untraced then traced; prints every end-to-end metric."""
    ok = True
    rows = []
    for w in WORKLOADS:
        runs = {}
        for trace in (0, 1):
            log(f"{w} trace={trace}")
            code, lines = run_jvm(cp, w, seed, seconds, trace, epochs, echo=False)
            env, report, result = parse_lines(lines)
            if code != 0 or result is None or report is None:
                log(f"{w} trace={trace} failed (exit {code})")
                ok = False
                break
            runs[trace] = (env, report, result)
        if len(runs) < 2:
            continue
        (env, rep0, res0), (_, rep1, res1) = runs[0], runs[1]
        if not (res0["correct"] and res1["correct"]):
            ok = False
        same_fp = rep0["fingerprints"] == rep1["fingerprints"]
        ok = ok and same_fp
        values = rep0["values"]
        metrics = dict(rep0["end_to_end"])
        for k in ["train_pair_epochs_per_s", "failed_ratio", "prauc.AdaMEL-base", "prauc.AdaMEL-zero",
                  "prauc.AdaMEL-few", "prauc.baselines_mean"]:
            if k in values:
                metrics[k] = values[k]
        wall0, wall1 = rep0["end_to_end"]["wall_s"], res1["metrics"]["trace.wall_s"]["value"]
        rows.append((w, env, metrics, res0, wall0, wall1, same_fp, rep0, res1))

    units = {"setup_s": "s", "wall_s": "s", "prep_pairs_per_s": "1/s", "split_fill_ratio": "ratio",
             "train_pair_epochs_per_s": "1/s", "failed_ratio": "ratio"}
    for w, env, metrics, res0, wall0, wall1, same_fp, rep0, res1 in rows:
        print(f"== {w}  (seed {env['seed']}, {env['nproc']} cores, {env['jvm']}, Spark {env['spark']} "
              f"{env['master']}, shuffle partitions {env['shuffle_partitions']}, heap {env['driver_heap_mb']} MB, "
              f"epochs {env['adamel_epochs']}, commit {env['commit']})")
        for k, v in metrics.items():
            print(f"  {k:<28} {v:>14.6g} {units.get(k, 'prauc')}")
        print(f"  {'attempted / failed':<28} {res0['attempted']:>8} / {res0['failed']}   correct={res0['correct']}")
        print(f"  {'tracing overhead':<28} {wall1 - wall0:>14.4g} s ({(wall1 - wall0) / wall0:+.1%} of wall_s)")
        print(f"  {'fingerprints traced==untraced':<28} {same_fp}")
        mix = {k.split('.')[-1]: v["value"] for k, v in res1["metrics"].items()
               if k.startswith("trace.self_share.")}
        print("  layer self-time shares (traced): " +
              ", ".join(f"{k} {v:.2f}" for k, v in mix.items()))
        print(f"  spark.jobs in iteration (traced): {res1['metrics']['spark.jobs']['value']:.0f}")
    print(json.dumps({"all_ok": ok}))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--epochs", type=int, default=None,
                    help="AdaMEL epochs per fit (default: the benchmark's; 60 = BenchDatasets)")
    a = ap.parse_args()
    if a.seed < 1:
        ap.error("--seed must be at least 1")
    cp = build()
    if a.workload == "all":
        sys.exit(run_all(cp, a.seed, a.seconds, a.epochs))
    code, lines = run_jvm(cp, a.workload, a.seed, a.seconds, a.trace, a.epochs, echo=True)
    if code != 0 or parse_lines(lines)[2] is None:
        log(f"run failed (exit {code})")
        sys.exit(code or 4)


if __name__ == "__main__":
    main()
