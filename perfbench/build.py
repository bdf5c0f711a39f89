"""Build the benchmark and the program it measures from source.

The program's own sbt build resolves test dependencies from an artifact
cache; the benchmark needs none of them, so it compiles with the Scala
compiler that ships in Spark's jar directory and runs on the same jars.
Compiled classes go to `.bench_build/perfbench/` in the checkout and are
rebuilt whenever a source file changes.

Run: python3 perfbench/build.py   (prints the class directory)
"""

import hashlib
import os
import shutil
import subprocess
import sys
import zipfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
OUT = os.path.join(ROOT, ".bench_build", "perfbench")

# What the benchmark calls: the program's packages (repro.core, .data, .eval,
# .stream, .baselines), the jobs' session bootstrap, and the naive k-NN
# reference that the exactness tests use. The top-level repro/*.scala files
# are a TPC-H scaffold that needs DuckDB and is not on any measured path.
PROGRAM_DIRS = ["src/main/scala/repro"]
PROGRAM_FILES = [
    "jobs/src/main/scala/repro/jobs/JobSession.scala",
    "src/test/scala/repro/core/Reference.scala",
]
REQUIRED = ["build.sbt", "src/main/scala/repro/core/ClaSS.scala",
            "src/main/scala/repro/stream/StreamingSegmentation.scala"] + PROGRAM_FILES


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def spark_jars():
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = os.path.dirname(os.path.dirname(os.path.realpath(submit)))
    jars = os.path.join(home or "", "jars")
    if not home or not os.path.isdir(jars):
        fail("Spark's jar directory not found (set SPARK_HOME)")
    return jars


def sources():
    missing = [p for p in REQUIRED if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        fail("the program's sources are missing from this checkout: " + ", ".join(missing))
    files = []
    for d in PROGRAM_DIRS:
        base = os.path.join(ROOT, d)
        for dirpath, _, names in os.walk(base):
            if dirpath == base:
                continue  # top-level repro/*.scala: see PROGRAM_DIRS
            files += [os.path.join(dirpath, n) for n in names if n.endswith(".scala")]
    files += [os.path.join(ROOT, p) for p in PROGRAM_FILES]
    for dirpath, _, names in os.walk(os.path.join(BENCH, "src")):
        files += [os.path.join(dirpath, n) for n in names if n.endswith(".scala")]
    return sorted(files)


def stamp(files):
    h = hashlib.sha256()
    for f in files:
        h.update(os.path.relpath(f, ROOT).encode())
        with open(f, "rb") as fh:
            h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def build():
    """Compile if needed; return (class dir, agent jar, jar dir, source hash)."""
    jars = spark_jars()
    files = sources()
    digest = stamp(files)
    classes = os.path.join(OUT, "classes")
    agent = os.path.join(OUT, "trace-agent.jar")
    stamp_file = os.path.join(OUT, "stamp")
    if os.path.isfile(stamp_file) and open(stamp_file).read() == digest:
        return classes, agent, jars, digest
    shutil.rmtree(OUT, ignore_errors=True)
    os.makedirs(classes)
    cmd = ["java", "-Xss8m", "-Xmx2g", "-cp", os.path.join(jars, "*"),
           "scala.tools.nsc.Main", "-usejavacp", "-nowarn", "-d", classes] + files
    print(f"perfbench: compiling {len(files)} files", file=sys.stderr)
    r = subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr, timeout=600)
    if r.returncode != 0:
        fail("compilation failed")
    # The agent jar holds only a manifest: its classes are on the class path.
    with zipfile.ZipFile(agent, "w") as z:
        z.writestr("META-INF/MANIFEST.MF",
                   "Manifest-Version: 1.0\nPremain-Class: perfbench.TraceAgent\n\n")
    with open(stamp_file, "w") as fh:
        fh.write(digest)
    return classes, agent, jars, digest


if __name__ == "__main__":
    print(build()[0])
