"""ClaSS benchmark: one command, three workloads, end-to-end or traced.

Run from the root of a checkout:

    python3 perfbench/run.py --workload class-standalone --seed 1 --seconds 15 --trace 0

The first run builds the program and the benchmark (see build.py). The
measuring JVM gets its own heap, its own temporary and Spark directories
inside the checkout, and the program's default Spark settings. The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See perfbench/README.md for the workloads, metrics and checks.
"""

import argparse
import os
import shutil
import subprocess
import sys
import time

sys.dont_write_bytecode = True  # leave nothing in the checkout but .bench_build
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import build  # noqa: E402

# operator-many-streams is not in BENCHMARK.json: at 32 keys a micro-batch
# takes 6.5 s, and a run long enough to be steady does not fit the time of a
# full evaluation next to the other two. It stays runnable by hand.
WORKLOADS = ["class-standalone", "operator-one-stream", "operator-many-streams"]
HEAP = "2g"
DEADLINE_S = 170  # the whole run, build excluded, ends within this

# Spark's standard Java 17 module opens (spark-submit adds the same).
OPENS = ["java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net",
         "java.nio", "java.util", "java.util.concurrent", "java.util.concurrent.atomic",
         "jdk.internal.ref", "sun.nio.ch", "sun.nio.cs", "sun.security.action",
         "sun.util.calendar"]


def git_sha():
    """The checkout's commit, when the checkout is a git work tree."""
    if not os.path.exists(os.path.join(build.ROOT, ".git")):
        return "none"
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=build.ROOT, capture_output=True,
                           text=True, timeout=10)
        return r.stdout.strip() if r.returncode == 0 else "none"
    except (OSError, subprocess.TimeoutExpired):
        return "none"


def steal_s():
    """CPU time the hypervisor gave to other guests so far (Linux), in s."""
    try:
        with open("/proc/stat") as f:
            fields = f.readline().split()
        return int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        return float("nan")


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()

    classes, agent, jars, digest = build.build()
    scratch = os.path.join(build.ROOT, ".bench_build", f"run-{os.getpid()}")
    tmp = os.path.join(scratch, "tmp")
    os.makedirs(tmp)
    # A fixed heap, and a collector without concurrent threads that would
    # compete with the task threads for the 4 cores.
    cmd = ["java", f"-Xms{HEAP}", f"-Xmx{HEAP}", "-XX:+UseParallelGC",
           f"-Djava.io.tmpdir={tmp}",
           f"-Dspark.local.dir={os.path.join(scratch, 'spark')}",
           "-Dspark.driver.host=127.0.0.1", "-Dspark.ui.enabled=false",
           f"-Dlog4j2.configurationFile={os.path.join(build.BENCH, 'log4j2.properties')}"]
    cmd += [f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in OPENS]
    if args.trace:
        cmd.append(f"-javaagent:{agent}")
    cmd += ["-cp", os.pathsep.join([classes, os.path.join(jars, "*")]), "perfbench.Main",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
            "--launched-ns", str(time.time_ns()), "--heap", HEAP,
            "--source-sha256", digest, "--git-sha", git_sha()]
    # The program's session defaults (local[*], 64 shuffle partitions) are
    # what the benchmark measures; environment overrides would change them.
    env = {k: v for k, v in os.environ.items()
           if k not in ("SPARK_MASTER", "SPARK_SHUFFLE_PARTITIONS")}
    steal0 = steal_s()
    proc = subprocess.Popen(cmd, cwd=build.ROOT, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=DEADLINE_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        print("perfbench: run exceeded its deadline", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    lines = out.rstrip("\n").split("\n")
    result = lines.pop() if proc.returncode == 0 and lines and lines[-1].startswith("{") else None
    # Time stolen from this VM's CPUs during the run: runs that lost much of
    # it read slow for reasons outside the program.
    lines.append(f"# host_steal_s={steal_s() - steal0:.1f} (all CPUs, whole run)")
    sys.stdout.write("".join(line + "\n" for line in lines))
    if result is None:
        print(f"perfbench: measuring JVM failed (exit {proc.returncode})", file=sys.stderr)
        return proc.returncode or 1
    print(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
