#!/usr/bin/env python3
"""Benchmark of the OpenBG reproduction: builds the program from source,
runs one workload in one JVM, checks its outputs and prints the metrics.

    python3 perfbench/run.py --workload construct --seed 42 --seconds 10 --trace 0

Run from the repository root. The last line of standard output is one JSON
object with the keys correct, attempted, failed and metrics. With --trace 0
the metrics are the end-to-end ones of BENCHMARK.json; with --trace 1 they are
the per-layer ones, from a traced run, plus the tracing overhead measured
against an untraced run of the same seed. See perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = ".bench_build"
# Per JVM; --scale bench (a manual check, not a benchmark run) needs longer.
JVM_TIMEOUT_S = {"perf": 170, "tiny": 170, "bench": 1800}
REFERENCE = os.path.join(HERE, "reference.json")
LAYERS = os.path.join(HERE, "layers.json")
# Sources of the program that the harness does not call and that need
# libraries outside the Spark distribution.
EXCLUDED = {"Oracle.scala"}


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    """The jars of the Spark distribution at $SPARK_HOME, or of the first
    `spark-submit` on the path that sits in one."""
    homes = [os.environ.get("SPARK_HOME", "")]
    homes += [os.path.dirname(os.path.dirname(os.path.realpath(os.path.join(d, "spark-submit"))))
              for d in os.environ.get("PATH", "").split(os.pathsep)
              if os.path.isfile(os.path.join(d, "spark-submit"))]
    for home in homes:
        jars = os.path.join(home, "jars")
        if home and glob.glob(os.path.join(jars, "scala-compiler-*.jar")):
            return jars
    fail("no Spark distribution with a Scala compiler: set SPARK_HOME")


def sources():
    prog = sorted(p for p in glob.glob("src/main/scala/**/*.scala", recursive=True)
                  if os.path.basename(p) not in EXCLUDED)
    if not prog:
        fail("no program sources under src/main/scala; run from the repository root")
    harness = sorted(glob.glob(os.path.join(HERE, "src", "**", "*.scala"), recursive=True))
    return prog + harness


def build(jars):
    """Compile program + harness once per source state; reuse the classes."""
    files = sources()
    h = hashlib.sha256()
    for f in files:
        h.update(f.encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    out = os.path.join(BUILD, "perfbench", "classes-" + h.hexdigest()[:16])
    if os.path.isdir(out):
        return out
    for old in glob.glob(os.path.join(BUILD, "perfbench", "classes-*")):
        shutil.rmtree(old, ignore_errors=True)
    tmp = out + ".tmp"
    os.makedirs(tmp)
    compiler = os.pathsep.join(glob.glob(os.path.join(jars, "scala-*.jar")))
    cmd = ["java", "-Xss8m", "-Xmx1g", "-XX:-UsePerfData", "-Djava.io.tmpdir=" + os.path.abspath(tmp),
           "-cp", compiler, "scala.tools.nsc.Main", "-nowarn",
           "-d", tmp, "-cp", os.path.join(jars, "*")] + files
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        print(r.stdout, file=sys.stderr)
        fail("build failed")
    os.rename(tmp, out)
    return out


def run_jvm(classes, jars, args, trace, spans=None):
    # Spark's block manager and the JVM's temporary files stay in the build dir.
    scratch = os.path.abspath(os.path.join(BUILD, "tmp"))
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)
    cmd = ["java", "-Xms3g", "-Xmx3g", "-XX:+UseParallelGC", "-Xss8m", "-XX:-UsePerfData",
           "-Djava.io.tmpdir=" + scratch,
           "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties")]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in
            ("java.lang", "java.lang.invoke", "java.nio", "java.util", "sun.nio.ch")]
    cmd += ["-cp", classes + os.pathsep + os.path.join(jars, "*"), "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", "1" if trace else "0", "--scale", args.scale]
    if spans:
        cmd += ["--spans", spans]
    env = dict(os.environ, SPARK_LOCAL_DIRS=scratch)
    timeout = JVM_TIMEOUT_S[args.scale]
    try:
        r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish in {timeout} s")
    lines = [l for l in r.stdout.splitlines() if l.startswith("PERFBENCH ")]
    if r.returncode != 0 or not lines:
        sys.stderr.write(r.stdout[-4000:])
        fail(f"{args.workload} exited with code {r.returncode}")
    return json.loads(lines[-1][len("PERFBENCH "):])


def load_reference():
    with open(REFERENCE) as fh:
        return json.load(fh)


def check(res, reference):
    """Count ops and failures: an op fails on an exception or when its
    fingerprint differs from the recorded one. Reference-free invariants
    hold on every seed."""
    attempted = failed = 0
    problems = []
    for p in res["passes"]:
        for op in p["ops"]:
            attempted += 1
            want = reference.get(op["name"])
            if op["error"] is not None:
                problems.append(f"{op['name']}: {op['error']}")
            elif want is not None and op["fingerprint"] != want:
                problems.append(f"{op['name']}: got {op['fingerprint']}, want {want}")
            else:
                continue
            failed += 1
        problems += [f"invariant {k} does not hold" for k, ok in p["invariants"].items() if not ok]
    return attempted, failed, problems


def table_iii_problems(res):
    """At bench scale and seed 42 the roster must print as the stored Table III."""
    want = load_reference()["table_iii"]
    problems = []
    for op in res["passes"][0]["ops"]:
        name = op["name"]
        if name.startswith("linkpred."):
            fp = op["fingerprint"]
            got = " ".join(f"{fp[k]:.3f}" for k in ("h1", "h3", "h10")) + \
                f" {fp['mr']:.1f} {fp['mrr']:.3f}"
            if got != want[name[len("linkpred."):]]:
                problems.append(f"Table III {name}: got {got}, want {want[name[len('linkpred.'):]]}")
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["construct", "learn"])
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, default=0, choices=[0, 1])
    ap.add_argument("--scale", default="perf", choices=["perf", "tiny", "bench"],
                    help="input scale; the benchmark is defined at perf")
    ap.add_argument("--record", action="store_true",
                    help="store this run's op fingerprints as the reference for its seed")
    args = ap.parse_args()

    jars = spark_jars()
    classes = build(jars)
    ref_all = load_reference()
    key = f"{args.scale}/{args.workload}/{args.seed}"
    reference = {} if args.record else ref_all["ops"].get(key, {})

    res = run_jvm(classes, jars, args, trace=False)
    runs = [res]
    if args.trace:
        spans = os.path.join(BUILD, "traces", f"{args.workload}-{args.scale}-seed{args.seed}.json")
        traced = run_jvm(classes, jars, args, trace=True, spans=spans)
        runs.append(traced)

    attempted = failed = 0
    problems = []
    for r in runs:
        a, f, p = check(r, reference)
        attempted += a
        failed += f
        problems += p
    if args.scale == "bench" and args.seed == 42 and args.workload == "learn":
        tp = table_iii_problems(res)
        failed += len(tp)
        problems += tp
    for p in problems:
        print(f"perfbench: {p}", file=sys.stderr)

    if args.record:
        if problems:
            fail("not recording a reference from a run with failures")
        ref_all["ops"][key] = {op["name"]: op["fingerprint"] for op in res["passes"][0]["ops"]}
        with open(REFERENCE, "w") as fh:
            json.dump(ref_all, fh, indent=1, sort_keys=True)
            fh.write("\n")

    wall = statistics.median(p["wall_s"] for p in res["passes"])
    if args.trace:
        with open(LAYERS) as fh:
            layers = json.load(fh)
        got = dict(traced["layers"], **{"trace.overhead_s": traced["passes"][0]["wall_s"] - wall})
        unknown = set(got) - set(layers)
        if unknown:
            fail(f"per-layer metrics missing from {LAYERS}: {sorted(unknown)}")
        # A layer the workload does not run reads 0.
        metrics = {k: {"value": got.get(k, 0.0), "unit": v["unit"]} for k, v in layers.items()}
    else:
        metrics = {
            "setup_s": {"value": res["setup_s"], "unit": "s"},
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": statistics.median(p["cpu_s"] for p in res["passes"]), "unit": "s"},
            "heap_live_mb": {"value": res["heap_live_mb"], "unit": "MB"},
        }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
