#!/usr/bin/env python3
"""Wire-level SCCF serving benchmark.

One command builds sccf_server (Release) and the perfbench binary from this
checkout, starts the daemon with the workload's flags, checks its replies
against an in-process twin, drives it over TCP from one load-generator
process, and prints every metric by name and unit. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

    python3 perfbench/run.py --workload read_mostly --seed 1 --seconds 20 --trace 0

--trace 0 prints the end-to-end metrics of an untraced wire run. --trace 1
repeats the wire run, adds unqueued wire passes and an in-process traced
replay of the same request stream, and prints the per-layer metrics with a
RECOMMEND / INGEST latency budget. --selftest builds and runs the harness
tests instead. Everything is built and written under .bench_build/.
"""

import argparse
import hashlib
import json
import os
import re
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_BASE = os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
BUILD = os.path.join(BUILD_BASE, "perfbench")
RUNS = os.path.join(BUILD_BASE, "runs")

SETUP_SPAWNS = 5
# A run whose open-loop generator sent this late (p99) is invalid.
MAX_LAG_P99_MS = 10.0



def metric_units(kind):
    """{name: unit} of the `end_to_end` or `per_layer` metrics declared in
    BENCHMARK.json, in file order."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def fail(message, code=1):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def log(message):
    print(message, flush=True)


# ------------------------------------------------------------------- build


def build():
    """Configures (once) and builds the daemon and the perfbench binary; returns the
    paths of both binaries."""
    for needed in ("CMakeLists.txt", "src/server/sccf_server_main.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("cannot build: %s is missing from the checkout" % needed, 2)
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD_BASE, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"] + generator)
    steps.append(["cmake", "--build", BUILD, "--target", "perfbench", "sccf_server_main", "-j", jobs])
    with open(build_log, "w") as out:
        for step in steps:
            if subprocess.call(step, stdout=out, stderr=subprocess.STDOUT, timeout=850) != 0:
                with open(build_log) as f:
                    sys.stderr.write(f.read()[-4000:])
                fail("build failed (%s)" % " ".join(step))
    return os.path.join(BUILD, "perfbench"), os.path.join(BUILD, "sccf", "sccf_server")


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        m = re.search(r"^CMAKE_BUILD_TYPE:\w+=(.*)$", f.read(), re.M)
    return m.group(1).strip() if m else ""


# -------------------------------------------------------------- provenance


def provenance(info, seed, flags):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            m = re.search(r"^model name\s*:\s*(.*)$", f.read(), re.M)
            cpu = m.group(1).strip() if m else cpu
    except OSError:
        pass
    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.check_output(["git", "-C", ROOT, "rev-parse", "HEAD"],
                                          text=True, stderr=subprocess.DEVNULL).strip()
        except (OSError, subprocess.CalledProcessError):
            sha = None
    digest = hashlib.sha256()
    for base in ("CMakeLists.txt", "src", "perfbench"):
        path = os.path.join(ROOT, base)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, n) for d, _, ns in os.walk(path) for n in ns)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "simd_variant": info["simd_variant"],
        "git_sha": sha,
        "source_sha256": digest.hexdigest()[:16],
        "build_type": build_type(),
        "seed": seed,
        "daemon_flags": flags,
    }


# ------------------------------------------------------------------ daemon


class Daemon:
    """One sccf_server process: spawned, timed to its `listening on` line,
    and stopped with SIGTERM (its graceful drain prints the stats line)."""

    def __init__(self, binary, flags, log_path):
        self.flags = flags
        self.errlog = open(log_path, "a")
        start = time.monotonic()
        self.proc = subprocess.Popen([binary, "--port=0"] + flags, stdout=subprocess.PIPE,
                                     stderr=self.errlog)
        self.users = self.items = self.port = None
        sel = selectors.DefaultSelector()
        sel.register(self.proc.stdout, selectors.EVENT_READ)
        deadline = start + 60
        seen = b""
        while self.port is None:
            if time.monotonic() > deadline or not sel.select(timeout=deadline - time.monotonic()):
                self.stop()
                fail("daemon did not start listening within 60 s")
            chunk = os.read(self.proc.stdout.fileno(), 4096)
            if not chunk:
                self.stop()
                fail("daemon exited during startup (see %s)" % log_path)
            seen += chunk
            m = re.search(rb"corpus users=(\d+) items=(\d+)\n", seen)
            if m:
                self.users, self.items = int(m.group(1)), int(m.group(2))
            m = re.search(rb"listening on [\d.]+:(\d+)\n", seen)
            if m:
                self.port = int(m.group(1))
        self.setup_s = time.monotonic() - start
        sel.close()

    def status(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            return dict(line.split(":", 1) for line in f if ":" in line)

    def stop(self):
        """SIGTERM, wait, and return the parsed `drained:` counters."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=30)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            out, _ = self.proc.communicate()
        self.errlog.close()
        m = re.search(r"drained: (.*)", (out or b"").decode(errors="replace"))
        return {k: int(v) for k, v in re.findall(r"(\w+)=(\d+)", m.group(1))} if m else {}


def run_perfbench(binary, *args, timeout=170):
    out = subprocess.run([binary] + list(args), stdout=subprocess.PIPE, text=True,
                         timeout=timeout)
    if out.returncode != 0:
        fail("perfbench %s exited with %d" % (args[0], out.returncode))
    return json.loads(out.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------- metrics


def end_to_end(load, setup_s, rss_mb):
    cpu_s = load["daemon_cpu_s"]
    completed = load["main_completed"]
    return {
        "setup_s": setup_s,
        "p50_ms": load["all"]["p50_ms"],
        "recommend_p50_ms": load["recommend"]["p50_ms"],
        "ingest_p50_ms": load["ingest"]["p50_ms"],
        "throughput_rps": load["throughput_rps"],
        "events_per_s": load["events_per_s"],
        "capacity_rps": load["capacity_rps"],
        "cpu_us_per_req": cpu_s * 1e6 / completed,
        "server_rss_mb": rss_mb,
    }


def per_layer(load, trace, drained):
    m = {k: v for k, v in trace.items() if isinstance(v, (int, float))}
    for cmd in ("recommend", "ingest"):
        m["server.queue_us." + cmd] = load[cmd]["p50_ms"] * 1e3 - trace["server.unqueued_us." + cmd]
    m["core.staged_rows"] = load["staged_rows_mean"]
    m["loadgen.lag_p99_ms"] = load["lag_p99_ms"]
    m["server.commands"] = drained.get("commands", -1)
    m["server.protocol_errors"] = drained.get("protocol_errors", -1)
    m["server.shed"] = drained.get("shed", -1)
    m["server.refused"] = drained.get("refused", -1)
    return m


def budget_table(workload, load, trace, layer):
    """The per-layer latency budget of RECOMMEND and INGEST p50, in us."""
    rows = []
    for cmd in ("recommend", "ingest"):
        reactor = (layer["server.transport_us"] + layer["server.parse_us." + cmd] +
                   layer["server.dispatch_self_us." + cmd])
        engine = layer["online.%s_us.p50" % cmd]
        rows.append((cmd, layer["server.queue_us." + cmd], layer["server.transport_us"],
                     layer["server.parse_us." + cmd], layer["server.dispatch_self_us." + cmd],
                     engine, layer["server.unqueued_us." + cmd],
                     layer["server.unattributed_frac." + cmd], reactor))
    lines = ["per-layer budget at p50 (us), workload %s:" % workload,
             "  %-10s %9s %9s %9s %9s %9s %9s %9s" % ("command", "queue", "transport", "parse",
                                                       "dispatch", "engine", "unqueued", "unattr")]
    for cmd, queue, transport, parse, dispatch, engine, unqueued, frac, _ in rows:
        lines.append("  %-10s %9.1f %9.1f %9.2f %9.2f %9.1f %9.1f %8.1f%%" % (
            cmd, queue, transport, parse, dispatch, engine, unqueued, 100 * frac))
    lines.append("  recommend engine split: models.infer %.1f, core.fanout %.1f, core.vote %.1f" % (
        trace["models.infer_us"], trace["core.fanout_us"], trace["core.vote_us"]))
    lines.append("  ingest per touched user: core.infer %.1f, core.index %.1f, core.identify %.1f"
                 " (identify_frac %.2f), persist.journal_append %.1f" % (
                     trace["core.infer_us"], trace["core.index_us"], trace["core.identify_us"],
                     trace["core.identify_frac"], trace["persist.journal_append_us"]))
    _, _, _, _, _, engine, _, _, reactor = rows[0]
    bound = "engine" if engine > reactor else "reactor"
    lines.append("  RECOMMEND unqueued p50: reactor (transport+parse+dispatch) %.1f us vs engine %.1f us"
                 " -> the %s is the larger share" % (reactor, engine, bound))
    return "\n".join(lines)


# -------------------------------------------------------------------- main


def selftest():
    build()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if subprocess.call(["cmake", "--build", BUILD, "--target", "perfbench_test", "-j", jobs]) != 0:
        fail("could not build perfbench_test (is GoogleTest installed?)")
    sys.exit(subprocess.call([os.path.join(BUILD, "perfbench_test")]))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    ap.add_argument("--workload", choices=workloads)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true", help="build and run the harness tests")
    args = ap.parse_args()
    if args.selftest:
        selftest()
    if not args.workload:
        ap.error("--workload is required")
    if args.seconds < 1:
        ap.error("--seconds must be >= 1")

    perfbench, server = build()
    if build_type() != "Release":
        fail("refusing to measure a %r build of sccf_server; Release only" % build_type())
    info = run_perfbench(perfbench, "flags", "--workload=" + args.workload)
    flags = info["daemon_flags"]
    nproc = os.cpu_count() or 1
    threads = 1 + (1 if info["background"] else 0) + 1  # reactor, compaction, load generator
    if threads > nproc:
        fail("workload needs %d busy threads (reactor, background compaction, load "
             "generator) but nproc is %d" % (threads, nproc))

    run_dir = os.path.join(RUNS, args.workload)
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    daemon_log = os.path.join(run_dir, "daemon.log")

    def spawn(k):
        extra = ["--data_dir=" + os.path.join(run_dir, "data%d" % k)] if info["journal"] else []
        return Daemon(server, flags + extra, daemon_log)

    # Set-up time: the median of several spawns; the last one serves.
    setups = []
    for k in range(SETUP_SPAWNS - 1):
        d = spawn(k)
        setups.append(d.setup_s)
        d.stop()
    daemon = spawn(SETUP_SPAWNS - 1)
    setups.append(daemon.setup_s)
    try:
        target = ["--workload=" + args.workload, "--port=%d" % daemon.port,
                  "--users=%d" % daemon.users, "--items=%d" % daemon.items]
        probe = run_perfbench(perfbench, "probe", *target)
        load = run_perfbench(perfbench, "load", *target, "--seed=%d" % args.seed,
                      "--seconds=%d" % args.seconds, "--pid=%d" % daemon.proc.pid,
                      "--dump=" + os.path.join(run_dir, "latencies.tsv"),
                      *(["--trace"] if args.trace else []))
        status = daemon.status()
        rss_mb = int(status["VmHWM"].split()[0]) / 1024.0
        trace = None
        if args.trace:
            trace_dir = os.path.join(run_dir, "trace")
            os.makedirs(trace_dir)
            trace = run_perfbench(perfbench, "trace", *target, "--seed=%d" % args.seed,
                           "--dir=" + trace_dir)
    finally:
        drained = daemon.stop()
    for k in range(SETUP_SPAWNS):  # journals are large; spans and logs stay
        shutil.rmtree(os.path.join(run_dir, "data%d" % k), ignore_errors=True)

    problems = []
    if probe["mismatches"]:
        problems.append("%d of %d probe replies differ from the in-process twin" % (
            probe["mismatches"], probe["probes"]))
    if load["history_mismatches"]:
        problems.append("%d users' HISTORY did not grow by their acknowledged triples" %
                        load["history_mismatches"])
    if load["bad_shape"]:
        problems.append("%d replies had the wrong shape" % load["bad_shape"])
    if trace and trace["wire_failures"]:
        problems.append("%d unqueued wire requests of the traced run failed" %
                        trace["wire_failures"])
    if load["daemon_cpu_s"] < 0 or not load["main_completed"]:
        problems.append("no daemon CPU time or no completed requests in the window")
    if load["lag_p99_ms"] > MAX_LAG_P99_MS:
        problems.append("invalid run: the open-loop generator fell behind its schedule "
                        "(lag p99 %.2f ms)" % load["lag_p99_ms"])

    record = {
        "workload": args.workload,
        "provenance": provenance(info, args.seed, flags),
        "setup_samples_s": setups,
        "probe": probe,
        "load": load,
        "drained": drained,
        "daemon_threads": int(status["Threads"]),
        "trace": trace,
    }
    prov = record["provenance"]
    log("workload %s seed %d: nproc=%s cpu=%r simd=%s build=%s git=%s src=%s" % (
        args.workload, args.seed, prov["nproc"], prov["cpu_model"], prov["simd_variant"],
        prov["build_type"], prov["git_sha"], prov["source_sha256"]))
    log("daemon: %s (threads %d)" % (" ".join(flags), record["daemon_threads"]))
    log("requests: attempted %d failed %d (errors %d, refused %d, bad shape %d, unanswered %d)"
        " failed_frac %.6f" % (load["attempted"], load["failed"], load["errors"], load["refused"],
                               load["bad_shape"], load["unanswered"],
                               load["failed"] / max(1, load["attempted"])))
    log("checks: probe %d/%d identical, history growth checked on %d users" % (
        probe["probes"] - probe["mismatches"], probe["probes"], load["history_users_checked"]))
    for name in ("all", "recommend", "ingest"):
        s = load[name]
        log("latency %-9s n=%d p50 %.3f ms p%d %.3f ms" % (
            name, s["n"], s["p50_ms"], s["tail_percent"], s["tail_ms"]))

    units = metric_units("per_layer" if args.trace else "end_to_end")
    if problems:
        metrics = {k: 0.0 for k in units}
    elif args.trace:
        metrics = per_layer(load, trace, drained)
        log(budget_table(args.workload, load, trace, metrics))
    else:
        metrics = end_to_end(load, statistics.median(setups), rss_mb)
    for name, unit in units.items():
        log("  %-36s %14.6g %s" % (name, metrics[name], unit))
    for p in problems:
        log("FAILED CHECK: " + p)
    record["metrics"] = metrics
    with open(os.path.join(run_dir, "result.json"), "w") as f:
        json.dump(record, f, indent=1)

    print(json.dumps({
        "correct": not problems,
        "attempted": load["attempted"],
        "failed": load["failed"],
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    main()
