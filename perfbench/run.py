#!/usr/bin/env python3
"""Metric DBSCAN benchmark: builds the harness from this checkout, runs one
workload and relays its report.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the repository and
the harness with sbt into .bench_build/ (and the builds' target/ directories);
later runs reuse that build while no source file has changed. The last line on
stdout is the JSON result. See perfbench/README.md for workloads and metrics.
"""
import argparse
import hashlib
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
SCRATCH = os.path.join(ROOT, ".bench_build")
CLASSPATH = os.path.join(BENCH, "target", "classpath.txt")
STAMP = os.path.join(SCRATCH, "build.stamp")

BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170

# Module opens Spark's own launcher would pass to a JDK 17 driver.
JDK_OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/sun.nio.ch", "java.base/sun.nio.cs",
    "java.base/sun.security.action", "java.base/sun.util.calendar",
]


def sources():
    """Every file the build reads, in a stable order."""
    roots = [os.path.join(ROOT, "src", "main"), os.path.join(ROOT, "jobs"),
             os.path.join(ROOT, "project"), os.path.join(BENCH, "src"),
             os.path.join(BENCH, "project")]
    files = [os.path.join(ROOT, "build.sbt"), os.path.join(BENCH, "build.sbt")]
    for top in roots:
        for d, dirs, names in os.walk(top):
            dirs[:] = sorted(x for x in dirs if x not in ("target", "project"))
            files += [os.path.join(d, x) for x in sorted(names)]
    return files


def stamp():
    h = hashlib.sha256()
    for f in sources():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def build():
    """Compiles with sbt unless the last build saw the same sources."""
    want = stamp()
    if os.path.exists(CLASSPATH) and os.path.exists(STAMP):
        with open(STAMP) as fh:
            if fh.read() == want:
                return
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "writeClasspath"]
    res = subprocess.run(cmd, cwd=BENCH, stdout=sys.stderr, stderr=sys.stderr,
                         stdin=subprocess.DEVNULL, timeout=BUILD_TIMEOUT_S)
    if res.returncode != 0 or not os.path.exists(CLASSPATH):
        sys.exit("perfbench: build failed")
    with open(STAMP, "w") as fh:
        fh.write(want)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    for need in ("build.sbt", os.path.join("src", "main", "scala", "repro", "core")):
        if not os.path.exists(os.path.join(ROOT, need)):
            sys.exit(f"perfbench: {need} not found; run from the root of a repository checkout")

    os.makedirs(os.path.join(SCRATCH, "tmp"), exist_ok=True)
    build()
    with open(CLASSPATH) as fh:
        cp = fh.read().strip()
    cmd = (["java", "-Xms2g", "-Xmx2g", "-XX:+UseParallelGC", "-XX:+AlwaysPreTouch",
            "-Djava.io.tmpdir=" + os.path.join(SCRATCH, "tmp"),
            "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false"]
           + ["--add-opens=%s=ALL-UNNAMED" % m for m in JDK_OPENS]
           + ["-cp", cp, "perfbench.Main",
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", args.trace, "--scratch", SCRATCH])
    try:
        res = subprocess.run(cmd, cwd=ROOT, stdin=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        sys.exit("perfbench: run exceeded %d s" % RUN_TIMEOUT_S)
    sys.exit(res.returncode)


if __name__ == "__main__":
    main()
