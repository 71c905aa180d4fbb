#!/usr/bin/env python3
"""Pipeline benchmark: the mnocpt verbs on the 256-node splice fixture.

Run from the repository root:

    python3 perfbench/run.py --workload replay_adaptive --seed 0 \\
        --seconds 30 --trace 0

Builds the mnoc libraries, mnocpt, micro_kernels, the traced pass
(perfbench_trace) and the host-speed kernel (perfbench_calibrate) under
.bench_build/, produces the workload's inputs (setup), then runs the
workload's verbs back to back as child processes (one pass) until
--seconds have been spent.  The host's speed changes within seconds,
so the kernel is timed on the verbs' vCPU while they run, and times are
reported relative to it: a pass in kernel times ("cal"), set-up at a
reference host speed.  Every verb's
artifacts are digested with their manifest stamps removed and compared
with perfbench/pins.json.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics: the untraced passes give per-verb wall and CPU figures, one
in-process pass with spans (perfbench_trace) gives per-layer times, and
micro_kernels gives per-kernel times.  The last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"}.

The power model is not validated against hardware measurements, so the
benchmark gives no accuracy figure; it checks that outputs match pins.
See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import re
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from compare import quartiles

BENCH = Path(__file__).resolve().parent
REPO = BENCH.parent
BUILD = REPO / ".bench_build" / "perfbench"
PINS = BENCH / "pins.json"

WORKLOADS = ("replay_faulted", "replay_adaptive")
# Pool size of every verb and of the traced pass (README "Pool size").
THREADS = 1
# What perfbench_calibrate prints; the kernel is deterministic.
CALIBRATE_OUTPUT = "calibrate 26160c8dd031c3da"
# Kernel runs before the first pass, and the interval at which a
# timed verb is paused for one more kernel run.
KERNEL_RUNS = 3
KERNEL_EVERY_S = 0.5
# setup_s is the set-up time at the host speed where the kernel takes
# this long (about its time when the host is not contended).
REFERENCE_KERNEL_S = 0.05
# Setups per --trace 0 run; setup_s is their median.
SETUPS = 3
# Fixture variants: --seed N simulates with seed 9 + N % 8.  Seed 9 is
# the fixture the roadmap's baseline figures were measured on.
BASE_SEED = 9
VARIANTS = 8
FIXTURE = ["--benchmark", "splice:barnes+radix", "--cores", "256",
           "--ops", "300"]
MICRO_CASES = {
    "BM_SplitterChainDesign/256": "micro.splitter_chain_design_256_ns",
    "BM_DegradationController/64": "micro.degradation_controller_64_ns",
    "BM_AlphaOptimize/4": "micro.alpha_optimize_4_ns",
    "BM_QapSwapDelta/256": "micro.qap_swap_delta_256_ns",
}
# Verbs whose wall time and CPU ratio the traced run reports.
VERBS = ("report", "report_faulted", "adapt")
# Per-layer span totals: metric -> span name (perfbench/trace_pass.cc).
SPAN_METRICS = {
    "sim.run_s": "sim.run",
    "sim.save_trace_s": "sim.save_trace",
    "sim.reader_drain_s": "sim.reader_drain",
    "core.map_s": "core.map",
    "core.build_topology_s": "core.build_topology",
    "core.build_design_s": "core.build_design",
    "core.resilient_design_s": "core.resilient_design",
    "faults.analyze_yield_s": "faults.analyze_yield",
    "optics.validate_design_s": "optics.validate_design",
    "core.build_ledger_s": "core.build_ledger",
    "runtime.degradation_s": "runtime.degradation",
    "runtime.adaptive_s": "runtime.adaptive",
    "runtime.reconcile_s": "runtime.reconcile",
    "core.load_design_s": "core.load_design",
    "core.save_design_s": "core.save_design",
}
COUNT_FIGURES = ("core.margin_steps", "runtime.trims", "runtime.relaxes",
                 "runtime.failovers", "runtime.restores",
                 "runtime.collapses", "runtime.retargets",
                 "runtime.candidates_built")


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def die(message):
    log("perfbench: " + message)
    sys.exit(2)


def build():
    """Configure once, then bring the four binaries up to date."""
    for required in ("src", "tools/mnocpt.cc", "bench/micro_kernels.cc"):
        if not (REPO / required).exists():
            die(f"repository source {required} is missing; run from a "
                "full checkout")
    steps = []
    if not (BUILD / "CMakeCache.txt").exists():
        steps.append(["cmake", "-S", str(BENCH), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "-j", "4", "--target",
                  "mnocpt", "perfbench_trace", "micro_kernels",
                  "perfbench_calibrate"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr,
                          stderr=sys.stderr).returncode != 0:
            die("build failed: " + " ".join(step))


def bench_env():
    env = {k: v for k, v in os.environ.items() if not k.startswith("MNOC_")}
    env.update(MNOC_LEDGER="1", MNOC_EPOCH_MSGS="4096",
               MNOC_THREADS=str(THREADS))
    return env


@dataclass
class Verb:
    """One mnocpt invocation: its arguments, extra environment, and the
    artifact (file or directory) whose digest is pinned."""
    name: str
    args: list
    artifact: Path
    env: dict = field(default_factory=dict)


def setup_verbs(work, fixture_seed):
    return [
        Verb("simulate", ["simulate", *FIXTURE, "--seed", fixture_seed,
                          "--out", work / "s.trace"], work / "s.trace"),
        Verb("design_replay", ["design", "--trace", work / "s.trace",
                               "--modes", "4", "--assign", "comm",
                               "--out", work / "r.design"],
             work / "r.design"),
    ]


def pass_verbs(workload, work):
    trace, design = work / "s.trace", work / "r.design"
    if workload == "replay_faulted":
        return [Verb("report_faulted",
                     ["report", "--design", design, "--trace", trace,
                      "--dir", work / "report_faulted"],
                     work / "report_faulted", {"MNOC_FAULTS": "1"})]
    return [
        Verb("report", ["report", "--design", design, "--trace", trace,
                        "--dir", work / "report"], work / "report"),
        Verb("adapt", ["adapt", "--design", design, "--trace", trace,
                       "--dir", work / "adapt"], work / "adapt"),
    ]


STAMP_LINES = (b"#", b'"#', b"- trace manifest:")
MANIFEST_BLOCK = re.compile(rb"manifest (\d+)\n")


def digest(path):
    """md5 of an artifact, a file or a directory of files, without the
    run-manifest stamps, which carry the git SHA and MNOC_THREADS: '#'
    stamp lines, the report's '- trace manifest:' line, and 'manifest
    N' blocks (N more lines).

    Streams line by line: this process's own peak memory would otherwise
    show in the next child's ru_maxrss, which exec inherits."""
    md5 = hashlib.md5()
    for item in sorted(path.iterdir()) if path.is_dir() else [path]:
        md5.update(item.name.encode() + b"\0")
        with open(item, "rb") as f:
            if item.suffix == ".pgm":  # binary raster: only the header is text
                magic, comment = f.readline(), f.readline()
                md5.update(magic if comment.startswith(b"#")
                           else magic + comment)
                for block in iter(lambda: f.read(1 << 16), b""):
                    md5.update(block)
            else:
                skip = 0
                for line in f:
                    if skip:
                        skip -= 1
                    elif line.startswith(STAMP_LINES):
                        pass
                    elif (line.startswith(b"manifest ") and
                          (block := MANIFEST_BLOCK.fullmatch(line))):
                        skip = int(block.group(1))
                    else:
                        md5.update(line)
        md5.update(b"\0")
    return md5.hexdigest()


class Runner:
    """Runs verbs, counts attempts and failures, checks digests."""

    def __init__(self, workload, seed, work, update_pins):
        self.workload, self.work = workload, work
        self.fixture_seed = BASE_SEED + seed % VARIANTS
        self.update_pins = update_pins
        self.env = bench_env()
        self.mnocpt = BUILD / "mnocpt"
        self.attempted = self.failed = 0
        self.pins = json.loads(PINS.read_text()) if PINS.exists() else {}
        self.stdout = {}

    def check(self, key, observed):
        """Count one output check against its pin."""
        pins = self.pins.setdefault(str(self.fixture_seed), {})
        if self.update_pins:
            pins[key] = observed
        elif pins.get(key) != observed:
            log(f"perfbench: {key} digest {observed} != pin {pins.get(key)}")
            self.failed += 1

    def run(self, verb, kernel=None):
        """Run one verb; return (wall s, cpu s, max RSS MB).  Given a
        `kernel` list, time the kernel during the verb (see wait())."""
        args = [str(a) for a in verb.args]
        out_path = self.work / f"{verb.name}.stdout"
        self.attempted += 1
        with open(out_path, "wb") as out:
            start = time.perf_counter()
            proc = subprocess.Popen([str(self.mnocpt), *args], stdout=out,
                                    env={**self.env, **verb.env})
            try:
                status, usage, paused = self.wait(proc.pid, kernel)
            except BaseException:  # SIGTERM or ^C: never leave it running
                proc.kill()
                proc.wait()
                raise
            wall = time.perf_counter() - start - paused
            proc.returncode = os.waitstatus_to_exitcode(status)
        self.stdout[verb.name] = out_path.read_text()
        if proc.returncode != 0:
            log(f"perfbench: {verb.name} exited {proc.returncode}")
            self.failed += 1
        else:
            self.check(verb.name, digest(verb.artifact))
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024

    def wait(self, pid, kernel):
        """Reap child `pid`; return (wait status, rusage, seconds paused).

        Given a `kernel` list, every KERNEL_EVERY_S seconds stop the
        child, time one kernel run on the vCPU it was using, append that
        time to the list, and continue it.  The kernel then samples the
        host's speed while the verb runs, and the pauses are left out of
        the verb's time."""
        paused = 0.0
        pidfd = os.pidfd_open(pid)
        try:
            while kernel is not None and not select.select(
                    [pidfd], [], [], KERNEL_EVERY_S)[0]:
                os.kill(pid, signal.SIGSTOP)
                _, status, usage = os.wait4(pid, os.WUNTRACED)
                if not os.WIFSTOPPED(status):  # it exited first
                    return status, usage, paused
                start = time.perf_counter()
                kernel += self.calibrate(1)
                os.kill(pid, signal.SIGCONT)
                paused += time.perf_counter() - start
            _, status, usage = os.wait4(pid, 0)
            return status, usage, paused
        finally:
            os.close(pidfd)

    def calibrate(self, runs):
        """Run the host-speed kernel `runs` times; return the wall
        seconds of each run."""
        walls = []
        for _ in range(runs):
            self.attempted += 1
            start = time.perf_counter()
            proc = subprocess.run([str(BUILD / "perfbench_calibrate")],
                                  stdout=subprocess.PIPE, text=True)
            walls.append(time.perf_counter() - start)
            output = proc.stdout.strip()
            if proc.returncode != 0 or output != CALIBRATE_OUTPUT:
                log(f"perfbench: perfbench_calibrate exited "
                    f"{proc.returncode} with {output!r}")
                self.failed += 1
        return walls


def pass_wall(record):
    return sum(wall for wall, _, _ in record.values())


def measure(runner, seconds):
    """Untraced passes until the next one would overrun --seconds (at
    least one), with the kernel timed before the first pass and during
    every verb.  Returns the passes, each {verb: (wall s, cpu s, max RSS
    MB)}, and the kernel's wall times."""
    verbs = pass_verbs(runner.workload, runner.work)
    passes = []
    start = time.perf_counter()
    kernel = runner.calibrate(KERNEL_RUNS)
    while True:
        passes.append({verb.name: runner.run(verb, kernel)
                       for verb in verbs})
        spent = time.perf_counter() - start
        if spent + spent / len(passes) > seconds:
            return passes, kernel


def setup(runner, count):
    """Produce the inputs `count` times; return each time's (wall s,
    wall s at the reference host speed)."""
    times = []
    for _ in range(count):
        kernel = []
        wall = sum(runner.run(v, kernel)[0]
                   for v in setup_verbs(runner.work, runner.fixture_seed))
        kernel = kernel or runner.calibrate(1)
        times.append((wall,
                      wall * REFERENCE_KERNEL_S / statistics.mean(kernel)))
    return times


def end_to_end(runner, setups, passes, kernel):
    walls = [pass_wall(p) for p in passes]
    # Means, not medians: the host flips between a fast and a slow state
    # within seconds, and a pass's time follows the share of time spent
    # slow, which the kernel's mean time estimates.
    cal = statistics.mean(walls) / statistics.mean(kernel)
    rss = statistics.median(max(r for _, _, r in p.values()) for p in passes)
    log(f"pass_cal {cal:.4f}: mean pass wall {statistics.mean(walls):.4f} s "
        f"over {len(walls)} passes / mean kernel "
        f"{statistics.mean(kernel):.4f} s over {len(kernel)} runs")
    log(f"pass wall {', '.join(f'{w:.3f}' for w in walls)} s")
    log(f"kernel {', '.join(f'{k:.4f}' for k in kernel)} s")
    log("setup wall / at reference speed: " + ", ".join(
        f"{wall:.4f} / {ref:.4f}" for wall, ref in setups) + " s")
    return {
        "pass_cal": (cal, "cal"),
        "setup_s": (statistics.median(ref for _, ref in setups), "s"),
        "peak_rss_mb": (rss, "MB"),
        "input_mb": ((runner.work / "s.trace").stat().st_size / 1e6, "MB"),
    }


def verb_figures(passes):
    """Median wall seconds and CPU ratio of every verb that ran."""
    out = {}
    for name in passes[0]:
        runs = [p[name] for p in passes]
        wall = statistics.median(w for w, _, _ in runs)
        cpu = statistics.median(c / (w * THREADS) for w, c, _ in runs)
        out[name] = (wall, cpu)
    return out


def traced(runner):
    """One in-process pass with spans; returns (spans, figures)."""
    tdir = runner.work / "traced"
    runner.attempted += 1
    proc = subprocess.run(
        [str(BUILD / "perfbench_trace"), "--workload", runner.workload,
         "--seed", str(runner.fixture_seed), "--dir", str(tdir)],
        env=runner.env, stdout=subprocess.PIPE, text=True)
    if proc.returncode != 0:
        die(f"perfbench_trace exited {proc.returncode}")
    log(proc.stdout.rstrip())
    # The in-process pass writes the same artifacts as the verbs; they
    # must match the same pins (design files carry no manifest here).
    artifacts = {"simulate": "s.trace", "design_hardened": "h.design",
                 "design_replay": "r.design"}
    for key, name in artifacts.items():
        if (tdir / name).exists():
            runner.attempted += 1
            runner.check(key, digest(tdir / name))
    # The span file must stay readable by `mnocpt profile`.
    runner.attempted += 1
    if subprocess.run([str(runner.mnocpt), "profile", "--spans",
                       str(tdir / "spans.json"), "--top", "1"],
                      stdout=subprocess.DEVNULL).returncode != 0:
        runner.failed += 1
    spans = json.loads((tdir / "spans.json").read_text())["traceEvents"]
    figures = json.loads((tdir / "figures.json").read_text())
    return spans, figures


def micro_kernels(work):
    out = work / "micro.json"
    names = "|".join(re.escape(name) for name in MICRO_CASES)
    subprocess.run([str(BUILD / "micro_kernels"),
                    f"--benchmark_filter=^({names})$",
                    "--benchmark_min_time=0.2",
                    f"--benchmark_out={out}", "--benchmark_out_format=json"],
                   stdout=subprocess.DEVNULL, check=True)
    scale = {"ns": 1.0, "us": 1e3, "ms": 1e6, "s": 1e9}
    return {MICRO_CASES[b["name"]]: b["real_time"] * scale[b["time_unit"]]
            for b in json.loads(out.read_text())["benchmarks"]}


def per_layer(runner, setups, passes, kernel):
    verbs = verb_figures(passes)
    spans, figures = traced(runner)
    total = {}
    calls = {}
    pass_spans = 0.0
    traced_pass = 0.0
    for event in spans:
        seconds = event["dur"] / 1e6
        name = event["name"]
        total[name] = total.get(name, 0.0) + seconds
        calls[name] = calls.get(name, 0) + 1
        if event.get("cat") == "pass":
            pass_spans += seconds
        elif event.get("cat") == "total":
            traced_pass = seconds
    metrics = {m: (total.get(s, 0.0), "s") for m, s in SPAN_METRICS.items()}
    loads = calls.get("sim.load_trace", 0)
    metrics["sim.load_trace_s"] = (
        total.get("sim.load_trace", 0.0) / max(loads, 1), "s")
    metrics["sim.trace_bytes"] = (figures["sim.trace_bytes"], "bytes")
    metrics["qap.cost_ratio"] = (figures.get("qap.cost_ratio", 0.0), "ratio")
    ledger_s = total.get("core.build_ledger", 0.0)
    metrics["core.ledger_cells_per_s"] = (
        figures.get("core.ledger_cells", 0.0) * calls.get(
            "core.build_ledger", 0) / ledger_s if ledger_s else 0.0, "1/s")
    epochs = figures.get("runtime.degradation_epochs", 0.0)
    metrics["runtime.degradation_epoch_us"] = (
        total.get("runtime.degradation", 0.0) * 1e6 / epochs
        if epochs else 0.0, "us")
    for name in COUNT_FIGURES:
        metrics[name] = (figures.get(name, 0.0), "count")
    for verb in VERBS:
        wall, cpu = verbs.get(verb, (0.0, 0.0))
        metrics[f"mnocpt.{verb}_s"] = (wall, "s")
        metrics[f"mnocpt.{verb}.cpu_ratio"] = (cpu, "ratio")
    verb_wall = sum(wall for wall, _ in verbs.values())
    pass_s = statistics.median(pass_wall(p) for p in passes)
    metrics["pass_wall_s"] = (pass_s, "s")
    metrics["host.calibrate_s"] = (statistics.mean(kernel), "s")
    metrics["setup_wall_s"] = (
        statistics.median(wall for wall, _ in setups), "s")
    metrics["mnocpt.residual_s"] = (verb_wall - pass_spans, "s")
    metrics["trace.overhead_s"] = (traced_pass - pass_s, "s")
    log(f"accounting: library spans {pass_spans:.4f} s + residual "
        f"{verb_wall - pass_spans:.4f} s = verb wall {verb_wall:.4f} s")
    log(f"traced pass {traced_pass:.4f} s vs untraced pass_s "
        f"{pass_s:.4f} s")
    for name, value in micro_kernels(runner.work).items():
        metrics[name] = (value, "ns")
    return metrics, figures


# Key simulated results: (source, pattern, names of its groups).  The
# source is a verb's stdout or a file under the work directory.
RESULTS = (
    ("simulate", r"(\d+) packets, (\d+) cycles", ("packets", "cycles")),
    ("report/mnoc_report.md", r"- epochs: (\d+)", ("epochs",)),
    ("report/mnoc_report.md", r"\| total \| (\S+) \|", ("total_power_w",)),
    ("report_faulted/mnoc_report.md", r"- epochs: (\d+)", ("epochs",)),
    ("report_faulted/mnoc_report.md", r"\| total \| (\S+) \|",
     ("total_power_w",)),
    ("adapt", r"net savings \(J\)\s+(\S+)", ("adaptive_net_savings_j",)),
)


def report_results(runner, figures):
    """Print the key simulated results the verbs and traced pass gave."""
    found = {}
    for source, pattern, names in RESULTS:
        path = runner.work / source
        text = (path.read_text() if path.suffix == ".md" and path.exists()
                else runner.stdout.get(source, ""))
        match = re.search(pattern, text)
        if match:
            found.update(zip(names, match.groups()))
    for key, value in sorted(figures.items()):
        found["traced." + key] = repr(value)
    print(f"fixture splice:barnes+radix, 256 cores, ops 300, seed "
          f"{runner.fixture_seed}, MNOC_EPOCH_MSGS=4096, "
          f"MNOC_THREADS={THREADS}")
    for key, value in found.items():
        print(f"result {key} {value}")
    print("accuracy: the power model is not validated against hardware "
          "measurements; no accuracy figure is given")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-pins", action="store_true",
                        help="record observed digests in pins.json")
    parser.add_argument("--append", metavar="FILE",
                        help="also append the result, with its workload "
                        "and seed, to FILE (input of compare.py)")
    args = parser.parse_args()
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    build()
    # Every child runs on one vCPU: the host slows vCPUs independently of
    # each other, and the kernel must see the slowdowns the verbs see.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    work = REPO / ".bench_build" / f"work-{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        runner = Runner(args.workload, args.seed, work, args.update_pins)
        setups = setup(runner, SETUPS if args.trace == 0 else 1)
        passes, kernel = measure(runner, args.seconds)
        figures = {}
        if args.trace == 0:
            metrics = end_to_end(runner, setups, passes, kernel)
        else:
            metrics, figures = per_layer(runner, setups, passes, kernel)
        report_results(runner, figures)
        if args.update_pins:
            PINS.write_text(json.dumps(runner.pins, indent=1,
                                       sort_keys=True) + "\n")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(f"failed_ops {runner.failed}/{runner.attempted}")
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    if args.append:
        with open(args.append, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, **result}) + "\n")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
