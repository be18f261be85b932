#!/usr/bin/env python3
"""Detection-latency benchmark entry point.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload social-fd --seed 1 --seconds 10 --trace 0

Builds the repository's main sources together with the benchmark harness
(once per source digest, into .bench_build/), then runs the workload. With
--trace 0 a run is FORKS fresh JVMs, one after another, each on its own
graph drawn from the seed and measuring seconds/FORKS; their samples are
pooled, so neither one JVM's JIT and GC history nor one graph sets the
result. --trace 1 is one JVM. The last line of stdout is the JSON result.
Build and Spark logs go to stderr.
"""

import argparse
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "perfbench"
BUILD = ROOT / ".bench_build"
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170
HEAP = "-Xmx3g"
FORKS = 2
UNITS = {"setup_s": "s", "detect_s": "s", "detect_tail_s": "s",
         "density_ratio": "1", "retained_mb": "MB"}


def fail(code, msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def sources():
    """Every file the build reads, in a fixed order."""
    files = sorted((ROOT / "src" / "main" / "scala").rglob("*.scala"))
    files += sorted((BENCH / "src").rglob("*"))
    files += [BENCH / "build.sbt", BENCH / "project" / "build.properties"]
    return [f for f in files if f.is_file()]


def digest():
    h = hashlib.sha256()
    for f in sources():
        h.update(str(f.relative_to(ROOT)).encode() + b"\0" + f.read_bytes() + b"\0")
    return h.hexdigest()[:16]


def run_group(cmd, timeout, **kw):
    """Runs cmd in its own process group; kills the whole group on timeout."""
    p = subprocess.Popen(cmd, start_new_session=True, **kw)
    try:
        return p, p.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(p.pid, signal.SIGKILL)
        p.wait()
        fail(4, f"{cmd[0]} exceeded {timeout}s")


def build(dig):
    """Returns the runtime classpath, compiling when the sources changed."""
    cp_file, dig_file = BUILD / "classpath.txt", BUILD / "digest"
    if cp_file.is_file() and dig_file.is_file() and dig_file.read_text() == dig:
        return cp_file.read_text()
    BUILD.mkdir(exist_ok=True)
    # sbt keeps its global state under .bench_build so the build writes
    # nowhere outside the checkout.
    cmd = ["sbt", "--batch", "-Dsbt.log.noformat=true",
           f"-Dsbt.global.base={BUILD / 'sbt-global'}",
           f"-Dsbt.boot.directory={BUILD / 'sbt-boot'}",
           f"-Dsbt.ivy.home={BUILD / 'ivy'}",
           "export Runtime/fullClasspath"]
    p, (out, _) = run_group(cmd, BUILD_TIMEOUT_S, cwd=BENCH, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, text=True)
    sys.stderr.write(out)
    lines = [l for l in out.splitlines() if l.strip()]
    if p.returncode != 0 or not lines or "sbt-target" not in lines[-1]:
        fail(3, f"build failed (sbt exit {p.returncode})")
    cp_file.write_text(lines[-1].strip())
    dig_file.write_text(dig)
    return lines[-1].strip()


def tail(xs):
    """The highest sample with at least ten samples above it. Below 21
    samples that sample lies under the median, so the maximum is taken."""
    s = sorted(xs)
    return s[-11] if len(s) >= 21 else s[-1]


def pool(raws):
    """End-to-end metrics over the pooled samples of every fork."""
    cat = lambda k: [x for r in raws for x in r[k]]
    return {
        "setup_s": statistics.median(cat("setup_s")),
        "detect_s": statistics.median(cat("detect_s")),
        "detect_tail_s": tail(cat("detect_s")),
        "density_ratio": statistics.median(r["density_ratio"] for r in raws),
        "retained_mb": statistics.median(r["retained_mb"] for r in raws),
    }


def commit():
    if not (ROOT / ".git").exists():
        return "none"
    r = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                       capture_output=True, text=True)
    return r.stdout.strip() or "none"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", required=True, choices=["0", "1"])
    a = ap.parse_args()
    if not (ROOT / "src" / "main" / "scala" / "repro").is_dir():
        fail(2, f"no program sources under {ROOT / 'src/main/scala'}")

    dig = digest()
    cp = build(dig)
    (BUILD / "tmp").mkdir(parents=True, exist_ok=True)
    java = str(Path(os.environ["JAVA_HOME"]) / "bin" / "java") if "JAVA_HOME" in os.environ else "java"
    base = [java, "-Xms3g", HEAP, "-XX:+UseParallelGC", "-XX:-UsePerfData",
            f"-Djava.io.tmpdir={BUILD / 'tmp'}",
            f"-Dperfbench.build={BUILD}",
            f"-Dperfbench.digest={dig}",
            f"-Dperfbench.commit={commit()}",
            "-cp", cp, "perfbench.Main",
            "--workload", a.workload, "--seed", str(a.seed), "--trace", a.trace]
    forks = FORKS if a.trace == "0" else 1
    raws, last = [], None
    for fork in range(forks):
        cmd = base + ["--seconds", str(a.seconds / forks), "--fork", str(fork)]
        p, (out, _) = run_group(cmd, RUN_TIMEOUT_S // forks, cwd=ROOT, stdout=subprocess.PIPE,
                                stdin=subprocess.DEVNULL, text=True)
        lines = out.strip().splitlines()
        if p.returncode != 0 or not lines:
            sys.stdout.write(out)
            fail(p.returncode or 5, f"benchmark fork {fork} exited {p.returncode}")
        sys.stdout.write("".join(l + "\n" for l in lines[:-1]))
        last = lines[-1]
        if a.trace == "0":
            raws.append(json.loads(last))
    if a.trace == "0":
        metrics = pool(raws)
        attempted = sum(r["attempted"] for r in raws)
        failed = sum(r["failed"] for r in raws)
        n = sum(len(r["detect_s"]) for r in raws)
        rule = f"p{100 * (n - 10) // n}" if n >= 21 else "max"
        print(f"# pooled over {forks} forks: {n} detections, tail = {rule} of {n}")
        for k, v in metrics.items():
            print(f"{k:<32} {v!r} {UNITS[k]}")
        print(f"{'fail_rate':<32} {failed / attempted!r} 1 ({failed} of {attempted})")
        last = json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                           "metrics": {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}})
    try:
        result = json.loads(last)
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (TypeError, ValueError, AssertionError):
        fail(5, "no JSON result on the last line")
    print(last)


if __name__ == "__main__":
    main()
