"""Sweep-engine benchmark of the sparsification reproduction.

One run measures one workload in one fresh JVM:

    python3 perfbench/run.py --workload distance-sweep --seed 1 --seconds 10 --trace 0

It builds the program from source when needed (see build.py), then prints a
``perfbench-stamp`` line and, as the last line of standard output, one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
ones. Other modes:

    python3 perfbench/run.py --self-test          # unit checks + tiny-scale smoke run
    python3 perfbench/run.py --record-reference   # rewrite perfbench/reference/*.tsv

See perfbench/README.md for the workloads and what each metric measures.
"""

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import build  # noqa: E402

BENCH = build.BENCH
ROOT = build.ROOT
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
RUN_LIMIT_S = 170        # a run must end within 180 s
FIRST_RUN_LIMIT_S = 880  # the run that builds may take 900 s
SMOKE_SCALE = 0.25
# Module openings Spark needs on Java 17 (what spark-submit adds by itself).
JAVA_MODULE_OPTS = ["-XX:+IgnoreUnrecognizedVMOptions"] + [
    f"--add-opens=java.base/{p}=ALL-UNNAMED" for p in (
        "java.lang", "java.lang.invoke", "java.lang.reflect", "java.io", "java.net", "java.nio",
        "java.util", "java.util.concurrent", "java.util.concurrent.atomic", "jdk.internal.ref",
        "sun.nio.ch", "sun.nio.cs", "sun.security.action", "sun.util.calendar")] + [
    "-Djdk.reflect.useDirectMethodHandle=false", "-Dio.netty.tryReflectionSetAccessible=true"]


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


def spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def commit():
    if (ROOT / ".git").exists():
        try:
            return subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                  text=True, timeout=10).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            pass
    return "unknown"


def java_cmd(classes, main, args):
    out = build.build_dir()
    tmp = out / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    heap = os.environ.get("SPARK_DRIVER_MEM") or "4g"
    cp = os.pathsep.join([str(classes), str(build.spark_jars() / "*")])
    # No hsperfdata file: the JVM would write it outside the build directory.
    return ["java", f"-Xmx{heap}", "-XX:-UsePerfData", *JAVA_MODULE_OPTS, f"-Djava.io.tmpdir={tmp}",
            f"-Dlog4j2.configurationFile={BENCH / 'log4j2.properties'}",
            "-cp", cp, main, *args]


def run_java(cmd, deadline):
    """Run the JVM in its own process group; kill the group at the deadline,
    or when this process is told to stop. Returns (exit code or None on
    timeout, stdout lines)."""
    p = subprocess.Popen(cmd, cwd=str(ROOT), stdout=subprocess.PIPE, stderr=sys.stderr,
                         text=True, start_new_session=True)

    def stop(signum, _frame):
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        sys.exit(128 + signum)

    previous = {s: signal.signal(s, stop) for s in (signal.SIGTERM, signal.SIGINT)}
    try:
        out, _ = p.communicate(timeout=max(1.0, deadline - time.monotonic()))
        return p.returncode, out.splitlines()
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        return None, []
    finally:
        for s, h in previous.items():
            signal.signal(s, h)


def measure(classes, workload, seed, seconds, trace, deadline, scale_factor=1.0):
    """One benchmark process. Returns (stamp, result) or raises RuntimeError."""
    work = build.build_dir() / "run"
    args = ["--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--scale-factor", str(scale_factor),
            "--work-dir", str(work), "--reference-dir", str(BENCH / "reference")]
    code, lines = run_java(java_cmd(classes, "perfbench.Main", args), deadline)
    if code is None:
        raise RuntimeError(f"{workload}: timed out")
    stamp = result = None
    for line in lines:
        if line.startswith("perfbench-stamp "):
            stamp = json.loads(line.split(" ", 1)[1])
        elif line.startswith("perfbench-result "):
            result = json.loads(line.split(" ", 1)[1])
        else:
            print(line, file=sys.stderr)
    if code != 0 or result is None or set(result) != RESULT_KEYS:
        raise RuntimeError(f"{workload}: benchmark process failed (exit {code})")
    return stamp, result


def self_test(classes, deadline_per_run):
    """Unit checks of the tracing and statistics code, then a tiny-scale run
    of every workload, checking each named metric is emitted with its unit."""
    code, lines = run_java(java_cmd(classes, "perfbench.SelfTest", []), time.monotonic() + deadline_per_run)
    for line in lines:
        print(line)
    ok = code == 0
    s = spec()
    for w in s["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in s[key]}
            try:
                _, result = measure(classes, w["name"], 1, 1, trace, time.monotonic() + deadline_per_run,
                                    scale_factor=SMOKE_SCALE)
            except RuntimeError as e:
                print(f"FAIL smoke {w['name']} trace={trace}: {e}")
                ok = False
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            bad = sorted(n for n in want.keys() | got.keys() if want.get(n) != got.get(n))
            values_ok = all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            passed = not bad and values_ok and result["attempted"] >= 1 and result["failed"] == 0
            ok &= passed
            print(f"{'ok  ' if passed else 'FAIL'} smoke {w['name']} trace={trace}: "
                  f"{len(got)} metrics, attempted={result['attempted']} failed={result['failed']}"
                  + (f", mismatched: {bad}" if bad else ""))
    print("self-test " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


def main():
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-test", action="store_true")
    ap.add_argument("--record-reference", action="store_true")
    a = ap.parse_args()
    start = time.monotonic()

    try:
        classes, digest, built = build.build()
    except build.BuildError as e:
        log(f"build failed: {e}")
        return 1
    limit = FIRST_RUN_LIMIT_S if built else RUN_LIMIT_S
    deadline = start + limit

    if a.self_test:
        return self_test(classes, RUN_LIMIT_S)
    if a.record_reference:
        names = [a.workload] if a.workload else [w["name"] for w in spec()["workloads"]]
        for name in names:
            out = BENCH / "reference" / f"{name}.tsv"
            code, lines = run_java(java_cmd(classes, "perfbench.Main", [
                "--workload", name, "--record-reference", str(out),
                "--work-dir", str(build.build_dir() / "run")]), time.monotonic() + FIRST_RUN_LIMIT_S)
            if code != 0:
                log(f"recording {name} failed")
                return 1
            log(f"wrote {out.relative_to(ROOT)}")
        return 0
    if not a.workload:
        ap.error("--workload is required")

    try:
        stamp, result = measure(classes, a.workload, a.seed, a.seconds, a.trace, deadline)
    except RuntimeError as e:
        log(str(e))
        return 1
    stamp.update({"commit": commit(), "source_sha256": digest, "built_now": built})
    print("perfbench-stamp " + json.dumps(stamp))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
