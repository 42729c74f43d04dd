"""Build file of the benchmark.

Compiles the program's main sources (``src/main/scala``) together with the
benchmark's own sources (``perfbench/src``) with the Scala compiler that ships in the
Spark distribution's ``jars`` directory, the same jars ``build.sbt`` puts on
the compile classpath. Output goes to ``<build dir>/classes``; a stamp of the
sources, the jar set and the compiler options skips the build when nothing
changed.

    python3 perfbench/build.py            # build into .bench_build
"""

import hashlib
import os
import shutil
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SOURCE_DIRS = [ROOT / "src" / "main" / "scala", BENCH / "src"]
SCALAC_OPTS = ["-nowarn", "-release", "17"]
BUILD_TIMEOUT_S = 840


class BuildError(Exception):
    pass


def build_dir():
    """Where build output and run scratch files go (inside the checkout)."""
    d = Path(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    return d if d.is_absolute() else ROOT / d


def spark_jars():
    """The Spark distribution's jar directory, from SPARK_HOME or from the
    location of ``spark-submit`` on the PATH."""
    home = os.environ.get("SPARK_HOME")
    if not home:
        submit = shutil.which("spark-submit")
        if submit:
            home = str(Path(submit).resolve().parent.parent)
    jars = Path(home or "") / "jars"
    if not home or not jars.is_dir():
        raise BuildError("no Spark distribution found (set SPARK_HOME)")
    return jars


def sources():
    missing = [d for d in SOURCE_DIRS if not d.is_dir()]
    if missing:
        raise BuildError("missing source directories: " + ", ".join(map(str, missing)))
    files = sorted(p for d in SOURCE_DIRS for p in d.rglob("*.scala"))
    if not files:
        raise BuildError("no Scala sources")
    return files


def source_digest(files, jars):
    h = hashlib.sha256()
    for f in files:
        h.update(str(f.relative_to(ROOT)).encode())
        h.update(f.read_bytes())
    h.update("\n".join(sorted(p.name for p in jars.glob("*.jar"))).encode())
    h.update(" ".join(SCALAC_OPTS).encode())
    return h.hexdigest()


def build():
    """Compile if needed. Returns (classes dir, source digest, built now)."""
    files = sources()
    jars = spark_jars()
    out = build_dir()
    classes = out / "classes"
    stamp = out / "classes.stamp"
    digest = source_digest(files, jars)
    if classes.is_dir() and stamp.is_file() and stamp.read_text().strip() == digest:
        return classes, digest, False
    tmp = out / "classes.tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    cmd = ["java", "-Xmx2g", "-Xss8m", "-XX:-UsePerfData", f"-Djava.io.tmpdir={out}",
           "-cp", str(jars / "*"), "scala.tools.nsc.Main", "-usejavacp",
           *SCALAC_OPTS, "-d", str(tmp), *map(str, files)]
    print(f"[perfbench] compiling {len(files)} sources", file=sys.stderr, flush=True)
    try:
        r = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise BuildError("compilation timed out")
    if r.returncode != 0:
        raise BuildError(f"compilation failed (exit {r.returncode})")
    shutil.rmtree(classes, ignore_errors=True)
    tmp.rename(classes)
    stamp.write_text(digest + "\n")
    return classes, digest, True


if __name__ == "__main__":
    try:
        classes, digest, built = build()
    except BuildError as e:
        print(f"[perfbench] build failed: {e}", file=sys.stderr)
        sys.exit(1)
    print(f"{'built' if built else 'up to date'}: {classes} ({digest[:12]})")
