#!/usr/bin/env python3
"""Cogra benchmark: runs one workload and prints its result as JSON.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run it from the root of a checkout. The first run builds the benchmark,
together with the program's sources under src/main, with sbt; later runs
rebuild only when a source is newer than the build. Each run starts one JVM,
which writes its scratch files under perfbench/work and nowhere else in the
checkout; the directory is emptied before and after the run. The last line
of standard output is the result; everything else goes to standard error.
"""
import argparse
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PROGRAM = ROOT / "src" / "main"
TARGET = HERE / "target"
CLASSPATH = TARGET / "runtime-classpath.txt"
WORK = HERE / "work"

# Options the Spark launcher passes to a Java 17 JVM.
JVM_OPENS = [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
    "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
    "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
    "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")]


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def newest_source():
    files = [HERE / "build.sbt", HERE / "project" / "build.properties"]
    for d in (HERE / "src" / "main", PROGRAM):
        files += [p for p in d.rglob("*") if p.is_file()]
    return max(p.stat().st_mtime for p in files)


def build():
    """Compiles with sbt when the classpath file is missing or stale."""
    if CLASSPATH.exists() and CLASSPATH.stat().st_mtime >= newest_source():
        return
    if shutil.which("sbt") is None:
        fail("sbt is not on PATH")
    env = dict(os.environ)
    env.setdefault("COURSIER_MODE", "offline")
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true", "-Dsbt.server.autostart=false",
           f"-Dsbt.global.base={TARGET / 'sbt-global'}", "compile", "writeClasspath"]
    done = subprocess.run(cmd, cwd=HERE, env=env, stdout=sys.stderr, stderr=sys.stderr,
                          stdin=subprocess.DEVNULL)
    if done.returncode != 0 or not CLASSPATH.exists():
        fail(f"build failed with code {done.returncode}")


def java():
    home = os.environ.get("JAVA_HOME")
    exe = Path(home) / "bin" / "java" if home else shutil.which("java")
    if exe is None or not Path(exe).exists():
        fail("no java: set JAVA_HOME or put java on PATH")
    return str(exe)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", choices=["0", "1"], required=True)
    args = ap.parse_args()

    if not (PROGRAM / "scala" / "repro" / "core").is_dir():
        fail(f"the program's sources are missing: no {PROGRAM / 'scala' / 'repro' / 'core'}")
    if "SPARK_HOME" not in os.environ:
        fail("SPARK_HOME must name the Spark distribution")
    build()

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    cmd = [java(), "-Xms3g", "-Xmx3g", "-XX:+IgnoreUnrecognizedVMOptions", *JVM_OPENS,
           f"-Djava.io.tmpdir={WORK / 'tmp'}", "-Dspark.ui.enabled=false",
           "-cp", CLASSPATH.read_text().strip(), "perfbench.Main",
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace, "--work", str(WORK)]
    env = dict(os.environ, SPARK_LOCAL_DIRS=str(WORK / "spark-local"))
    # A stuck JVM is killed; a slow one still reports its metrics. The
    # stream workload runs whole rounds, so a run may measure for longer
    # than --seconds.
    timeout_s = 60 + 15 * args.seconds
    # On SIGTERM, subprocess.run kills the JVM and waits for it.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        done = subprocess.run(cmd, cwd=ROOT, env=env, stdin=subprocess.DEVNULL, timeout=timeout_s)
        code = done.returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {timeout_s} s and was killed", file=sys.stderr)
        code = 3
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    sys.exit(code)


if __name__ == "__main__":
    main()
