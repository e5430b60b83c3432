#!/usr/bin/env python3
"""Socket-level BCC search benchmark.

    python3 perfbench/run.py --workload lp-planted --seed 1 --seconds 30 --trace 0

Builds the shipped `bccs_serve` and the benchmark's own `perfbench_tool`
from this checkout (perfbench/CMakeLists.txt, build tree in .bench_build/),
generates the workload's graph and request stream from the seed, starts
`bccs_serve --listen 0` as a child process, drives it over TCP from one
load-generator process, checks every answer against an in-process oracle,
and prints one JSON object as the last line of stdout.

--trace 0 prints the end-to-end metrics (what a socket client sees).
--trace 1 prints the per-layer metrics of a traced in-process replay of a
prefix of the same request stream (see perfbench/README.md).
"""

import argparse
import json
import os
import select
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# The server runs with two worker threads and each workload drives it from
# one load-generator process: a closed loop over two connections.
SERVER_THREADS = 2
CONNS = 2
# The oracle runs after the server has stopped, so it may use more cores.
ORACLE_THREADS = 3
# setup_s is the median over this many server starts, half of them before
# the load and half after it, so a short slow spell of the host moves few of
# them.
SETUPS_BEFORE = 7
SETUPS_AFTER = 6
# Queries sent in the first WARMUP_S of the load are not timed.
WARMUP_S = 0.5
# The traced run replays this many requests of the stream.
TRACE_COUNT = 80

# Both workloads: `bccs_serve --graph <text> --method lp`, no caches,
# distinct queries. lp-planted (in-repo dblp stand-in) exercises Find-G0
# and query-distance repair; lp-skewed (Chung-Lu power-law graph) exercises
# butterfly counting and the peel cascade on hubs.
WORKLOADS = ("lp-planted", "lp-skewed")

END_TO_END_UNITS = {
    "setup_s": "s", "query_qps": "1/s", "query_p50_ms": "ms", "query_p99_ms": "ms",
    "ops_ok_frac": "frac", "server_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "graph.text_load_s": "s", "graph.snapshot_open_s": "s",
    "graph.delta_build_us": "us", "graph.delta_apply_us": "us",
    "graph.changelog_append_us_p50": "us", "graph.changelog_append_us_p99": "us",
    "core.kcore_us": "us", "butterfly.count_us": "us", "butterfly.wedges": "count",
    "butterfly.counting_calls": "count", "butterfly.delta_rounds": "count",
    "butterfly.delta_fallbacks": "count", "bcc.find_g0_us": "us", "bcc.peel_us": "us",
    "bcc.query_distance_us": "us", "bcc.l2p_us": "us", "bcc.rounds": "count",
    "bcc.g0_size": "count", "bcc.answer_over_g0": "frac", "bcc.index_repair_us": "us",
    "bcc.repair_incremental_frac": "frac", "engine.exec_ms_p50": "ms",
    "engine.exec_ms_p99": "ms", "engine.queue_wait_ms_p50": "ms",
    "engine.queue_wait_ms_p99": "ms", "engine.update_prepare_ms": "ms",
    "cache.hit_rate": "frac", "cache.lookups": "count", "cache.evictions": "count",
    "cache.stale_drops": "count", "block_cache.hit_rate": "frac", "net.codec_us": "us",
    "net.socket_overhead_us": "us", "gen.late_p99_ms": "ms",
    "trace.unattributed_frac": "frac", "trace.overhead_frac": "frac",
}


def log(msg):
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


def build_dir():
    # CARGO_TARGET_DIR, when set, names the build tree; a relative path is
    # taken from the checkout root.
    d = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return d if os.path.isabs(d) else os.path.join(ROOT, d)


def build(bdir):
    for need in ("CMakeLists.txt", "src", "tools/bccs_serve.cc"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"checkout lacks {need}: the benchmark builds the program from source")
    if not os.path.exists(os.path.join(bdir, "CMakeCache.txt")):
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        run_checked(["cmake", "-S", HERE, "-B", bdir, *gen,
                     "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], timeout=300)
    run_checked(["cmake", "--build", bdir, "-j3", "--target", "perfbench_tool", "bccs_serve"],
                timeout=840)
    tools = {
        "tool": os.path.join(bdir, "perfbench_tool"),
        "serve": os.path.join(bdir, "bccs", "bccs_serve"),
    }
    for path in tools.values():
        if not os.access(path, os.X_OK):
            raise BenchError(f"build produced no {path}")
    return tools


def run_checked(cmd, timeout, capture=False):
    res = subprocess.run(cmd, stdout=subprocess.PIPE if capture else sys.stderr,
                         stderr=sys.stderr, timeout=timeout, text=True)
    if res.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited {res.returncode}")
    return res.stdout if capture else None


def run_json(cmd, timeout):
    out = run_checked(cmd, timeout, capture=True)
    return json.loads(out.strip().splitlines()[-1])


LIVE_SERVERS = []


class Server:
    """One `bccs_serve --listen 0` child process; its stdout is a pipe."""

    def __init__(self, tools, wdir):
        start = time.perf_counter()
        self.proc = subprocess.Popen(
            [tools["serve"], "--graph", os.path.join(wdir, "graph.txt"), "--method", "lp",
             "--listen", "0", "--threads", str(SERVER_THREADS), "--quiet"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
        LIVE_SERVERS.append(self)
        self.output = b""
        self.port = self._wait_port()
        self.setup_s = self._ping(start)

    def _wait_port(self):
        # Blocks on the pipe until the "listening on <addr>:<port>" line
        # arrives (the server flushes it), so no polling delay lands in
        # setup_s.
        fd = self.proc.stdout.fileno()
        deadline = time.monotonic() + 60
        while True:
            _, found, rest = self.output.partition(b"listening on ")
            if found and b"\n" in rest:
                return int(rest.split()[0].rsplit(b":", 1)[1])
            left = deadline - time.monotonic()
            if left <= 0 or not select.select([fd], [], [], left)[0]:
                raise BenchError("server did not start listening")
            chunk = os.read(fd, 4096)
            if not chunk:
                raise BenchError(f"server exited {self.proc.wait()} during set-up")
            self.output += chunk

    def _ping(self, start):
        with socket.create_connection(("127.0.0.1", self.port), timeout=30) as s:
            s.sendall(b"ping\n")
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(64)
                if not chunk:
                    break
                buf += chunk
            elapsed = time.perf_counter() - start
            if buf.strip() != b"pong":
                raise BenchError(f"server answered ping with {buf!r}")
            s.sendall(b"quit\n")
        return elapsed

    def rss_mb(self):
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def stop(self):
        """SIGTERM, wait for the drain; returns (exit code, admitted items)."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
        try:
            rest, _ = self.proc.communicate(timeout=60)
            code = self.proc.returncode
        except subprocess.TimeoutExpired:
            self.proc.kill()
            rest, _ = self.proc.communicate()
            code = -9
        self.output += rest or b""
        LIVE_SERVERS.remove(self)
        admitted = None
        for line in self.output.decode(errors="replace").splitlines():
            if line.startswith("served "):
                admitted = int(line.split()[1])
        return code, admitted


def set_up(tools, wdir, count):
    """Starts and stops `count` servers; returns their set-up times and how
    many did not exit 0."""
    times, failed = [], 0
    for _ in range(count):
        server = Server(tools, wdir)
        times.append(server.setup_s)
        code, _ = server.stop()
        failed += code != 0
    return times, failed


def load(tools, port, requests, out, seconds, conns, limit):
    cmd = [tools["tool"], "load", "--port", str(port), "--requests", requests,
           "--conns", str(conns), "--seconds", str(seconds), "--out", out]
    if limit is not None:
        cmd += ["--limit", str(limit)]
    return run_json(cmd, timeout=seconds + 90)


def read_log(path):
    recs = []
    with open(path) as f:
        for line in f:
            p = line.split()
            recs.append({"index": int(p[0]), "status": p[2], "due": int(p[3]) / 1e9,
                         "send": int(p[4]) / 1e9, "recv": int(p[5]) / 1e9})
    return recs


def quantile(values, q):
    """Nearest-rank quantile (the same rule as perfbench_tool)."""
    if not values:
        return 0.0
    v = sorted(values)
    k = max(0, min(len(v) - 1, int(-(-q * len(v) // 1)) - 1))
    return v[k]


def run_socket(tools, wdir, seconds, conns=CONNS, limit=None):
    """Set-ups, the load, shutdown and the oracle. Returns everything the
    metrics need. A limited (traced) run starts the server once."""
    setups, failed_setups = [], 0
    if limit is None:
        setups, failed_setups = set_up(tools, wdir, SETUPS_BEFORE - 1)
    server = Server(tools, wdir)
    setups.append(server.setup_s)
    requests = os.path.join(wdir, "requests.txt")
    log_path = os.path.join(wdir, "responses.tsv")
    summary = load(tools, server.port, requests, log_path, seconds, conns, limit)
    rss = server.rss_mb()
    code, admitted = server.stop()
    if limit is None:
        after, failed_after = set_up(tools, wdir, SETUPS_AFTER)
        setups += after
        failed_setups += failed_after
    oracle = run_json([tools["tool"], "oracle", "--graph", os.path.join(wdir, "graph.txt"),
                       "--requests", requests, "--log", log_path,
                       "--threads", str(ORACLE_THREADS)], timeout=170)
    return {"setups": setups, "failed_setups": failed_setups, "summary": summary,
            "recs": read_log(log_path), "rss": rss, "code": code, "admitted": admitted,
            "oracle": oracle}


def accounting(res):
    """(correct, attempted, failed) over every line sent. Any failure makes
    the run incorrect."""
    recs = res["recs"]
    attempted = len(recs)
    failed = sum(r["status"] != "ok" for r in recs)  # err, rej, missing answers
    failed += res["oracle"]["mismatches"]
    failed += res["summary"]["stray_lines"]  # answers to unknown or answered ids
    failed += res["failed_setups"]
    if res["admitted"] != attempted:
        failed += abs((res["admitted"] or 0) - attempted)
        log(f"server admitted {res['admitted']} items, client sent {attempted}")
    if res["code"] != 0:
        failed = attempted
        log(f"server exited {res['code']}")
    if res["oracle"]["first_problem"]:
        log("oracle: " + res["oracle"]["first_problem"])
    failed = min(failed, attempted)
    if failed:
        log(f"{failed} of {attempted} operations failed")
    return failed == 0, attempted, failed


def latency_ms(r):
    """Send to answer (closed loop)."""
    return (r["recv"] - r["send"]) * 1e3


def end_to_end(res):
    recs = res["recs"]
    stop = res["summary"]["send_seconds"]
    timed_q = [r for r in recs if r["status"] == "ok" and WARMUP_S <= r["send"] <= stop]
    if not timed_q:
        raise BenchError("run produced no timed queries")
    lat_q = [latency_ms(r) for r in timed_q]
    log(f"{len(timed_q)} timed queries; set-up times {[round(t, 4) for t in res['setups']]}")
    correct, attempted, failed = accounting(res)
    return correct, attempted, failed, {
        "setup_s": statistics.median(res["setups"]),
        "query_qps": len(timed_q) / (stop - WARMUP_S),
        "query_p50_ms": quantile(lat_q, 0.5),
        "query_p99_ms": quantile(lat_q, 0.99),
        "ops_ok_frac": 1.0 - failed / attempted,
        "server_rss_mb": res["rss"],
    }


def per_layer(tools, wdir, name, seed):
    # One connection: the socket run and the in-process run then serve the
    # same query sequence without two queries sharing the CPU, so their
    # latencies differ by the socket path alone.
    res = run_socket(tools, wdir, seconds=120, conns=1, limit=TRACE_COUNT)
    correct, attempted, failed = accounting(res)
    late = [(r["send"] - r["due"]) * 1e3 for r in res["recs"]]
    spans = os.path.join(build_dir(), "traces", f"{name}-{seed}.spans.tsv")
    os.makedirs(os.path.dirname(spans), exist_ok=True)
    inproc = os.path.join(wdir, "inproc.tsv")
    tr = run_json([tools["tool"], "trace", "--dir", wdir, "--threads", str(SERVER_THREADS),
                   "--count", str(TRACE_COUNT), "--spans", spans, "--latencies", inproc],
                  timeout=170)
    attempted += tr["requests"]
    failed += tr["engine_failed"] + tr["oracle_mismatches"]
    correct = failed == 0
    # Socket minus in-process latency of the same request, median over the
    # prefix's queries: pairing cancels the spread between queries.
    with open(inproc) as f:
        inproc_ms = dict((int(i), float(ms)) for i, ms in (line.split() for line in f))
    diffs = [latency_ms(r) - inproc_ms[r["index"]] for r in res["recs"]
             if r["status"] == "ok" and r["index"] in inproc_ms]
    m = dict(tr["metrics"])
    m["net.socket_overhead_us"] = quantile(diffs, 0.5) * 1e3
    m["gen.late_p99_ms"] = quantile(late, 0.99)
    return correct, attempted, failed, m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    bdir = build_dir()
    tools = build(bdir)
    wdir = os.path.join(bdir, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(wdir, ignore_errors=True)
    os.makedirs(wdir)
    try:
        gen = [tools["tool"], "gen", "--workload", args.workload, "--seed", str(args.seed),
               "--dir", wdir]
        log("inputs: " + run_checked(gen, timeout=120, capture=True).strip())
        if args.trace:
            correct, attempted, failed, metrics = per_layer(tools, wdir, args.workload,
                                                            args.seed)
            units = PER_LAYER_UNITS
        else:
            res = run_socket(tools, wdir, args.seconds)
            correct, attempted, failed, metrics = end_to_end(res)
            units = END_TO_END_UNITS
    finally:
        for server in list(LIVE_SERVERS):
            server.stop()
        shutil.rmtree(wdir, ignore_errors=True)
    missing = set(units) - set(metrics)
    if missing:
        raise BenchError(f"metrics not measured: {sorted(missing)}")
    print(json.dumps({
        "correct": bool(correct), "attempted": int(attempted), "failed": int(failed),
        "metrics": {k: {"value": float(metrics[k]), "unit": units[k]} for k in units},
    }))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log(f"error: {e}")
        sys.exit(1)
