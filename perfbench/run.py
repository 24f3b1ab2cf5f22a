#!/usr/bin/env python3
"""Build the benchmark from the checkout it sits in, then run one workload.

Usage, from the root of the checkout:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--toy]

The first run compiles ../src/main/scala together with the harness in
perfbench/src with sbt, and caches the classpath under .bench_build/ keyed
by a hash of the sources; later runs start the JVM directly. The last line
of standard output is the result JSON; the line before it is the full
record. A failed build or run exits non-zero and prints no result.
"""

import hashlib
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
MAIN_SOURCES = os.path.join(ROOT, "src", "main", "scala")
CACHE = os.path.join(ROOT, ".bench_build", "perfbench")
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 170

# Java 17 module opens Spark needs; the same list is in build.sbt.
OPENS = [
    "java.base/java.lang", "java.base/java.lang.invoke", "java.base/java.lang.reflect",
    "java.base/java.io", "java.base/java.net", "java.base/java.nio",
    "java.base/java.util", "java.base/java.util.concurrent",
    "java.base/java.util.concurrent.atomic", "java.base/jdk.internal.ref",
    "java.base/sun.nio.ch", "java.base/sun.nio.cs", "java.base/sun.security.action",
    "java.base/sun.util.calendar",
]


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def source_files():
    dirs = [MAIN_SOURCES, os.path.join(HERE, "src", "main")]
    files = [os.path.join(HERE, "build.sbt"), os.path.join(HERE, "project", "build.properties")]
    for d in dirs:
        for base, _, names in os.walk(d):
            files += [os.path.join(base, n) for n in names if n.endswith((".scala", ".java"))]
    return sorted(files)


def source_hash():
    h = hashlib.sha256()
    for f in source_files():
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def spark_env():
    env = dict(os.environ)
    if "SPARK_HOME" not in env:
        submit = shutil.which("spark-submit")
        if submit is None:
            fail("SPARK_HOME is unset and spark-submit is not on PATH")
        env["SPARK_HOME"] = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    return env


def build(digest, env):
    """Compile with sbt and return the runtime classpath, cached per source hash."""
    cp_file = os.path.join(CACHE, "classpath.txt")
    hash_file = os.path.join(CACHE, "source.sha256")
    if os.path.exists(cp_file) and os.path.exists(hash_file):
        with open(hash_file) as fh:
            if fh.read().strip() == digest:
                with open(cp_file) as fh:
                    classpath = fh.read().strip()
                # The compiled classes live in perfbench/target, outside the cache.
                if all(os.path.exists(p) for p in classpath.split(os.pathsep)):
                    return classpath
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           "compile", "export Runtime/fullClasspath"]
    try:
        proc = subprocess.run(cmd, cwd=HERE, env=env, stdin=subprocess.DEVNULL,
                              capture_output=True, text=True, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"build did not finish within {BUILD_TIMEOUT_S} s")
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-20000:] + proc.stderr[-20000:])
        fail(f"build failed with exit code {proc.returncode}")
    lines = [l.strip() for l in proc.stdout.splitlines() if ".jar" in l and not l.startswith("[")]
    if not lines:
        sys.stderr.write(proc.stdout[-20000:])
        fail("sbt printed no classpath")
    os.makedirs(CACHE, exist_ok=True)
    with open(cp_file, "w") as fh:
        fh.write(lines[-1])
    with open(hash_file, "w") as fh:
        fh.write(digest)
    return lines[-1]


def git_sha():
    """HEAD of the checkout, or "unknown" when the checkout is not a git repository."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10, stdin=subprocess.DEVNULL)
        return out.stdout.strip() if out.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


def main(args):
    if not os.path.isdir(MAIN_SOURCES):
        fail(f"no program sources at {os.path.relpath(MAIN_SOURCES, os.getcwd())}; "
             "run from the root of a checkout of the repository")
    env = spark_env()
    digest = source_hash()
    classpath = build(digest, env)

    scratch = os.path.join(ROOT, ".bench_build", "run")
    for d in ("tmp", "spark-local", "warehouse", "traces"):
        os.makedirs(os.path.join(scratch, d), exist_ok=True)
    env["SPARK_LOCAL_DIRS"] = os.path.join(scratch, "spark-local")
    java = os.path.join(env["JAVA_HOME"], "bin", "java") if "JAVA_HOME" in env else "java"
    # A fixed young generation keeps peak RSS from following G1's adaptive sizing.
    cmd = [java, "-Xms1g", "-Xmx2g", "-Xmn256m", "-XX:+UseParallelGC"] + [
        f"--add-opens={p}=ALL-UNNAMED" for p in OPENS] + [
        "-Dlog4j2.configurationFile=" + os.path.join(HERE, "log4j2.properties"),
        "-Djava.io.tmpdir=" + os.path.join(scratch, "tmp"),
        "-Dspark.ui.enabled=false",
        "-Dspark.driver.host=127.0.0.1",
        "-Dspark.sql.warehouse.dir=" + os.path.join(scratch, "warehouse"),
        "-Dperfbench.traceDir=" + os.path.join(scratch, "traces"),
        "-Dperfbench.gitSha=" + git_sha(),
        "-Dperfbench.sourceHash=" + digest,
        "-cp", classpath, "perfbench.Main",
    ] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                              stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"run did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stdout)
        fail(f"run failed with exit code {proc.returncode}", proc.returncode or 1)
    print("\n".join(lines), flush=True)


if __name__ == "__main__":
    main(sys.argv[1:])
