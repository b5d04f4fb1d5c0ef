#!/usr/bin/env python3
"""End-to-end benchmark of lphd over TCP, with reference-checked answers.

    python3 lphbench/run.py --workload mix|games|patch --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  Builds lphd and lphbench_helper into
.bench_build/ (CMake, from lphbench/CMakeLists.txt), starts a fresh
`lphd --port 0 --threads 4` for every measured pass, drives it from one
client process over at most 4 plain TCP connections, checks every verdict
against references computed by the helper from src/oracle/reference.hpp, and
cross-checks the client's counts with the counters lphd writes via
--metrics= on SIGTERM.

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics (envelope stages, counters, span self times from a traced pass, and
the tracing overhead).  The last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  Exit status: 0 when every
answer was correct and every counter agreed, 1 otherwise (lphd exiting
during or at the end of a run included), 2 when the benchmark could not run
at all (e.g. sources or toolchain missing).

lphbench/README.md says why each workload exists.
"""

import argparse
import json
import math
import os
import shutil
import signal
import socket
import struct
import subprocess
import sys
import time

import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
SOURCE = os.path.dirname(BENCH)
ROOT = os.getcwd()
BUILD = os.path.join(ROOT, ".bench_build")
SCRIPTS = os.path.join(SOURCE, "scripts")
SERVER_THREADS = 4
SETUP_SPAWNS = 15

RECORD = struct.Struct("<IHBBqqqIIIIIII")  # see Record in helper.cpp
(IDX, CONN, STATUS, MEMO, DUE, SEND, RECV, QUEUE, BATCH, EXEC, WRITE, REQ_B,
 RESP_B, REPLY_ID) = range(14)
OK = 0  # STATUS values: 0 ok, 1 error, 2 rejected, 3 unanswered, 4 garbled
UNANSWERED = 3
NO_REPLY_ID = 0xFFFFFFFF  # the reply named no request index


class BenchError(Exception):
    """The benchmark could not run (exit 2, no result line)."""


# --- build ------------------------------------------------------------------

def build():
    for need in ("CMakeLists.txt", "src", "tools", "scripts"):
        if not os.path.exists(os.path.join(SOURCE, need)):
            raise BenchError("repository sources not found (%s missing next "
                             "to lphbench/)" % need)
    os.makedirs(BUILD, exist_ok=True)
    log = os.path.join(BUILD, "build.log")
    with open(log, "a") as out:
        if not os.path.exists(os.path.join(BUILD, "build.ninja")):
            if subprocess.call(["cmake", "-S", BENCH, "-B", BUILD, "-G",
                                "Ninja", "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                               stdout=out, stderr=subprocess.STDOUT) != 0:
                raise BenchError("cmake configure failed; see %s" % log)
        jobs = str(max(1, min(4, os.cpu_count() or 1)))
        if subprocess.call(["cmake", "--build", BUILD, "--target", "lphd",
                            "lphbench_helper", "-j", jobs],
                           stdout=out, stderr=subprocess.STDOUT) != 0:
            raise BenchError("build failed; see %s" % log)
    return (os.path.join(BUILD, "lph", "tools", "lphd"),
            os.path.join(BUILD, "lphbench_helper"))


# --- the server under test --------------------------------------------------

def health_roundtrip(port, timeout=10.0):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(b'{"type":"health","id":0}\n')
        data = b""
        while not data.endswith(b"\n"):
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("lphd closed the health connection")
            data += chunk
    reply = json.loads(data)
    if reply.get("status") != "ok":
        raise BenchError("health probe failed: %s" % data[:200])


class Server:
    """One lphd process; setup_s is spawn -> first health reply."""

    def __init__(self, lphd, workdir, tag, trace=False):
        self.metrics_path = os.path.join(workdir, tag + ".metrics.json")
        self.trace_path = os.path.join(workdir, tag + ".trace") if trace else None
        argv = [lphd, "--port", "0", "--threads", str(SERVER_THREADS),
                "--metrics=" + self.metrics_path]
        if trace:
            argv.append("--trace=" + self.trace_path)
        t0 = time.perf_counter()
        # lphd writes a few lines to stderr (the port, the shutdown summary):
        # far below a pipe's capacity, so the pipe is drained only at exit.
        self.proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL,
                                     stdout=subprocess.DEVNULL,
                                     stderr=subprocess.PIPE, text=True)
        self.log = ""
        self.port = None
        try:
            while self.port is None:
                line = self.proc.stderr.readline()
                if not line:
                    raise BenchError("lphd did not start: %s" % self.log)
                self.log += line
                if "listening on 127.0.0.1:" in line:
                    self.port = int(line.rsplit(":", 1)[1])
            health_roundtrip(self.port)
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        self.lines_sent = 1  # the health probe

    def peak_rss_mb(self):
        """lphd's VmHWM; NaN once lphd has exited (stop() reports that)."""
        try:
            with open("/proc/%d/status" % self.proc.pid) as f:
                for line in f:
                    if line.startswith("VmHWM:"):
                        return int(line.split()[1]) / 1024.0
        except OSError:
            pass
        return float("nan")

    def stop(self, problems):
        """SIGTERM, wait, and return the --metrics= counters.  When lphd had
        already exited, exits non-zero or hangs, that is lphd's failure: it
        goes into `problems` with lphd's last stderr lines, and the counters
        are None."""
        died = self.proc.poll() is not None
        if not died:
            self.proc.send_signal(signal.SIGTERM)
        try:
            self.log += self.proc.communicate(timeout=60)[1]
        except subprocess.TimeoutExpired:
            self.kill()
            problems.append("lphd did not exit within 60 s of SIGTERM")
            return None
        if died or self.proc.returncode != 0:
            problems.append("lphd %s with code %d; its last stderr lines:\n%s"
                            % ("exited before SIGTERM" if died
                               else "exited on SIGTERM",
                               self.proc.returncode,
                               "\n".join(self.log.splitlines()[-8:])))
            return None
        with open(self.metrics_path) as f:
            return json.load(f)

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.communicate()


def measure_setup(lphd, workdir, problems):
    samples = []
    for i in range(SETUP_SPAWNS):
        server = Server(lphd, workdir, "setup%d" % i)
        try:
            server.stop(problems)
        except BaseException:
            server.kill()
            raise
        samples.append(server.setup_s)
    return median(samples), samples


# --- load -------------------------------------------------------------------

class Pass:
    """What one load phase left behind."""

    def __init__(self, summary, records, bodies):
        self.summary = summary
        self.records = records
        self.bodies = bodies  # (index, body dict) of every answered request


def run_load(helper, server, workdir, tag, lines, mode, seconds=0,
             due=None, limit=None):
    req_path = os.path.join(workdir, tag + ".requests")
    with open(req_path, "w") as f:
        f.write("\n".join(lines) + "\n")
    rec_path = os.path.join(workdir, tag + ".records")
    body_path = os.path.join(workdir, tag + ".bodies")
    argv = [helper, "load", "--port", str(server.port), "--requests",
            req_path, "--mode", mode, "--seconds", repr(seconds),
            "--server-pid", str(server.proc.pid), "--records", rec_path,
            "--bodies", body_path]
    if due is not None:
        due_path = os.path.join(workdir, tag + ".due")
        with open(due_path, "w") as f:
            f.write("\n".join(str(d) for d in due) + "\n")
        argv += ["--due", due_path]
    if limit is not None:
        argv += ["--limit", str(limit)]
    proc = subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          text=True, timeout=600)
    if proc.returncode != 0:
        raise BenchError("load client failed: %s" % proc.stderr[-400:])
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    with open(rec_path, "rb") as f:
        records = list(RECORD.iter_unpack(f.read()))
    bodies = []
    with open(body_path) as f:
        for line in f:
            index, body = line.rstrip("\n").split("\t", 1)
            bodies.append((int(index), json.loads(body)))
    server.lines_sent += len(records)
    return Pass(summary, records, bodies)


# --- reference answers ------------------------------------------------------

class References:
    """Reference answers by job line, computed by `lphbench_helper ref` and
    cached under .bench_build (keyed by the helper binary, so a rebuilt
    reference never reuses stale answers)."""

    def __init__(self, helper):
        self.helper = helper
        st = os.stat(helper)
        self.path = os.path.join(BUILD, "refcache-%d-%d.jsonl"
                                 % (st.st_size, st.st_mtime_ns))
        self.answers = {}
        if os.path.exists(self.path):
            with open(self.path) as f:
                for line in f:
                    try:
                        entry = json.loads(line)
                    except ValueError:
                        continue  # torn by an interrupted run: recomputed
                    self.answers[entry["job"]] = entry["answer"]

    def resolve(self, jobs, workdir):
        missing = sorted(set(j for j in jobs if j not in self.answers))
        if not missing:
            return 0.0
        t0 = time.perf_counter()
        # One single-threaded helper process per core.
        procs = []
        parts = max(1, min(os.cpu_count() or 1, len(missing)))
        answers = [None] * len(missing)
        try:
            for k in range(parts):
                jobs_path = os.path.join(workdir, "ref%d.jobs" % k)
                with open(jobs_path, "w") as f:
                    f.write("\n".join(missing[k::parts]) + "\n")
                out_path = os.path.join(workdir, "ref%d.out" % k)
                procs.append((subprocess.Popen(
                    [self.helper, "ref", jobs_path, out_path],
                    stderr=subprocess.PIPE, text=True), out_path))
            for k, (proc, out_path) in enumerate(procs):
                _, err = proc.communicate()
                if proc.returncode != 0:
                    raise BenchError("reference helper failed: %s" % err)
                with open(out_path) as f:
                    part = [json.loads(line) for line in f]
                if len(part) != len(missing[k::parts]):
                    raise BenchError("reference helper returned %d of %d "
                                     "answers" % (len(part),
                                                  len(missing[k::parts])))
                answers[k::parts] = part
        finally:
            for proc, _ in procs:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        with open(self.path, "a") as f:
            for job, answer in zip(missing, answers):
                if "error" in answer:
                    raise BenchError("reference failed on %r: %s"
                                     % (job[:120], answer["error"]))
                self.answers[job] = answer
                f.write(json.dumps({"job": job, "answer": answer}) + "\n")
        return time.perf_counter() - t0


# --- correctness ------------------------------------------------------------

def valid_coloring(g, k, colors):
    return (isinstance(colors, list) and len(colors) == g.n
            and all(isinstance(c, int) and 0 <= c < k for c in colors)
            and all(colors[u] != colors[v] for u, v in g.edges))


def valid_hamiltonian_cycle(g, cyc):
    if not isinstance(cyc, list) or sorted(cyc) != list(range(g.n)):
        return False
    return all((min(a, b), max(a, b)) in g.edges
               for a, b in zip(cyc, cyc[1:] + cyc[:1]))


def expected_game(ref):
    out = {"accepted": ref["accepted"], "machine_runs": ref["machine_runs"],
           "faulted_runs": ref["faulted_runs"]}
    if "witness" in ref:
        out["witness"] = ref["witness"]
    return out


def check_body(req, body, refs):
    """None when `body` (an ok reply minus its envelope) answers `req`
    correctly, else a description of what differs."""
    p = req.params
    job = gen.ref_job(req)
    ref = refs.answers[job] if job is not None else None
    if req.kind in ("game", "patch"):
        got = {k: body.get(k) for k in ("accepted", "machine_runs",
                                        "faulted_runs", "witness")
               if k in body}
        want = expected_game(ref)
        if req.kind == "patch":
            got.update(nodes=body.get("nodes"), edges=body.get("edges"))
            want.update(nodes=req.graph.n, edges=len(req.graph.edges))
        return None if got == want else (got, want)
    if req.kind == "register":
        got = {k: body.get(k) for k in ("nodes", "edges", "existed")}
        want = {"nodes": req.graph.n, "edges": len(req.graph.edges),
                "existed": False}
        return None if got == want else (got, want)
    if req.kind == "decide":
        answer = body.get("answer")
        if answer != ref["answer"]:
            return ({"answer": answer}, ref)
        if p["problem"] == "coloring" and answer and not valid_coloring(
                req.graph, p["k"], body.get("colors")):
            return ({"colors": body.get("colors")}, "a proper %d-coloring"
                    % p["k"])
        if p["problem"] == "hamiltonian" and answer and \
                not valid_hamiltonian_cycle(req.graph, body.get("cycle")):
            return ({"cycle": body.get("cycle")}, "a Hamiltonian cycle")
        return None
    if req.kind == "logic":
        if p["formula"] == "all_selected":
            want = all(l == "1" for l in req.graph.labels)
        else:
            want = ref["answer"]
        got = body.get("satisfied")
        return None if got == want else ({"satisfied": got},
                                         {"satisfied": want})
    if req.kind == "oracle":
        got = {"passed": body.get("passed"),
               "divergences": body.get("divergences")}
        want = {"passed": True, "divergences": 0}
        return None if got == want else (got, want)
    return None  # control: the ok status is all there is to check


def check_reply_ids(ps, problems):
    """Every reply must echo the id of the request the client paired it with
    (on a pipelined connection, the oldest one unanswered).  A reply that
    names no request is allowed only as an error (lphd's protocol errors
    carry no id); it still counts as failed."""
    for r in ps.records:
        if r[STATUS] == UNANSWERED or r[REPLY_ID] == r[IDX] or \
                (r[REPLY_ID] == NO_REPLY_ID and r[STATUS] != OK):
            continue
        problems.append("reply out of order: request %d on connection %d got "
                        "a reply naming %s" % (
                            r[IDX], r[CONN], "no request"
                            if r[REPLY_ID] == NO_REPLY_ID
                            else "id %d" % r[REPLY_ID]))


def check_pass(reqs, ps, refs, workdir, problems):
    """Checks that every reply belongs to its request and every ok body of
    pass `ps` against the references; returns (ok replies checked,
    reference seconds spent)."""
    check_reply_ids(ps, problems)
    ok_bodies = [(i, body) for i, body in ps.bodies
                 if body.get("status") == "ok"]
    jobs = (gen.ref_job(reqs[i]) for i, _ in ok_bodies)
    ref_s = refs.resolve(set(j for j in jobs if j is not None), workdir)
    for index, body in ok_bodies:
        req = reqs[index]
        diff = check_body(req, body, refs)
        if diff is not None:
            problems.append("incorrect answer to request %d:\n  line: %s\n"
                            "  lphd: %s\n  reference: %s"
                            % (index, req.line[:300], json.dumps(diff[0]),
                               json.dumps(diff[1])))
    return len(ok_bodies), ref_s


def cross_check(server, metrics, ps, problems):
    """The client's counts must match lphd's own --metrics= counters (None
    when lphd failed, which stop() has already reported)."""
    if metrics is None:
        return
    sent = server.lines_sent
    ok = 1 + sum(1 for r in ps.records if r[STATUS] == OK)  # + health probe
    failed = sum(1 for r in ps.records if r[STATUS] != OK)

    def m(name):
        return int(metrics.get(name, 0))

    admitted = m("service.submitted") + m("service.rejected") + \
        m("service.protocol_errors")
    if admitted != sent:
        problems.append("accounting: lphd saw %d lines (submitted %d + "
                        "rejected %d + protocol errors %d), client sent %d"
                        % (admitted, m("service.submitted"),
                           m("service.rejected"), m("service.protocol_errors"),
                           sent))
    if m("service.completed") != ok:
        problems.append("accounting: service.completed %d != %d ok replies"
                        % (m("service.completed"), ok))
    if m("service.rejected") + m("service.errors") != failed:
        problems.append("accounting: service.rejected %d + service.errors %d "
                        "!= %d failed requests" % (m("service.rejected"),
                                                   m("service.errors"), failed))
    for name in ("service.cache.verdict_mismatches", "oracle.divergences"):
        if m(name) != 0:
            problems.append("accounting: %s = %d, must be 0" % (name, m(name)))
    # Each stage is rounded to a whole microsecond: allow 2 us of rounding.
    over = sum(1 for r in ps.records if r[STATUS] == OK and
               stage_sum_us(r) * 1000 > (r[RECV] - r[SEND]) + 2000)
    if over:
        problems.append("accounting: %d replies report a stage sum above "
                        "their client wall time" % over)


# --- statistics -------------------------------------------------------------

def stage_sum_us(r):
    return r[QUEUE] + r[BATCH] + r[EXEC] + r[WRITE]


def median(values):
    s = sorted(values)
    n = len(s)
    if n == 0:
        return 0.0
    return s[n // 2] if n % 2 else (s[n // 2 - 1] + s[n // 2]) / 2.0


def percentile(values, q):
    """Nearest-rank percentile (q in [0, 1])."""
    s = sorted(values)
    if not s:
        return 0.0
    return s[max(0, min(len(s) - 1, int(math.ceil(q * len(s))) - 1))]


# The tail percentile of each workload, fixed so it does not move with the
# program's speed: at each workload's nominal request count it has well over
# ten samples beyond it.  Higher percentiles (up to the highest with ten
# samples beyond) spread by up to 70% between runs on a 4-core VM, which
# measures the host's scheduler rather than lphd.
TAIL_Q = {"mix": 0.99, "games": 0.95, "patch": 0.99}


# --- workloads --------------------------------------------------------------

# mix: offered rate, about a tenth of what lphd sustains on this stream with
# 4 closed-loop connections (README.md says why not half).
MIX_RATE = 110
# patch: lines generated per chain (a run stops at the time box first).
PATCH_LINES = 4000


class Stream:
    def __init__(self, reqs, lines, mode, due=None):
        self.reqs = reqs
        self.lines = lines
        self.mode = mode
        self.due = due


def make_stream(workload, seed, seconds):
    if workload == "mix":
        count = int(MIX_RATE * seconds)
        reqs = gen.mix_stream(seed, count)
        return Stream(reqs, [r.line for r in reqs], "open",
                      due=gen.poisson_due_us(seed, count, seconds))
    if workload == "games":
        reqs = gen.games_stream(seed)
        return Stream(reqs, [r.line for r in reqs], "closed")
    if workload == "patch":
        pairs = gen.patch_stream(seed, PATCH_LINES)
        return Stream([r for _, r in pairs],
                      ["%d\t%s" % (c, r.line) for c, r in pairs], "chains")
    raise BenchError("unknown workload %r" % workload)


def with_trace_ids(stream):
    """The same stream with "trace":{"id":N} on every line (N = index)."""
    lines = []
    for i, line in enumerate(stream.lines):
        prefix, _, body = line.rpartition("\t") if stream.mode == "chains" \
            else ("", "", line)
        traced = body[:-1] + ',"trace":{"id":%d}}' % i
        lines.append(prefix + ("\t" if prefix else "") + traced)
    return Stream(stream.reqs, lines, stream.mode, stream.due)


def measure(lphd, helper, workdir, tag, stream, seconds, problems,
            trace=False, limit=None):
    """One fresh lphd, the timed load phase, then SIGTERM.  Returns
    (server, timed pass, metrics, peak RSS); metrics is None and peak RSS
    NaN when lphd failed (reported in `problems`)."""
    server = Server(lphd, workdir, tag, trace=trace)
    try:
        timed = run_load(helper, server, workdir, tag, stream.lines,
                         stream.mode, seconds=seconds, due=stream.due,
                         limit=limit)
        rss = server.peak_rss_mb()
        metrics = server.stop(problems)
    except BaseException:
        server.kill()
        raise
    return server, timed, metrics, rss


def latencies_ms(ps, mode):
    """Per-request latency (failed requests count as infinitely late)."""
    out = []
    for r in ps.records:
        start = r[DUE] if mode == "open" else r[SEND]
        out.append((r[RECV] - start) / 1e6 if r[STATUS] == OK
                   else float("inf"))
    return out


def end_to_end(workload, stream, timed, seconds):
    recs = timed.records
    ok = sum(1 for r in recs if r[STATUS] == OK)
    failed = len(recs) - ok
    phase_s = timed.summary["phase_ns"] / 1e9
    box = seconds
    if stream.mode == "open":
        rps = ok / phase_s
    else:
        # Closed loops: replies completed inside the time box, per second of
        # it (requests in flight at the box's end still count below).  A
        # stream that runs out first ends the box early (the report says so).
        box = min(seconds, phase_s)
        rps = sum(1 for r in recs
                  if r[STATUS] == OK and r[RECV] <= box * 1e9) / box
    lat = latencies_ms(timed, stream.mode)
    q = TAIL_Q[workload]
    tail = percentile(lat, q)
    beyond = sum(1 for x in lat if x > tail)
    cpu_ns = timed.summary["server_cpu_ns"]
    return {
        "throughput_rps": rps,
        "latency_p50_ms": percentile(lat, 0.5),
        "latency_tail_ms": tail,
        "server_cpu_ms_per_req": cpu_ns / 1e6 / max(ok, 1),
    }, {"ok": ok, "failed": failed, "tail_q": q, "beyond": beyond,
        "samples": len(lat), "phase_s": phase_s, "box_s": box}


# --- per-layer --------------------------------------------------------------

def stage_stats(ps, mode):
    """Envelope-derived per-request numbers of the ok replies."""
    gap, queue, batch, write, hit_exec = [], [], [], [], []
    for r in ps.records:
        if r[STATUS] != OK:
            continue
        gap.append((r[RECV] - r[SEND]) / 1000.0 - stage_sum_us(r))
        queue.append(r[QUEUE])
        batch.append(r[BATCH])
        write.append(r[WRITE])
        if r[MEMO]:
            hit_exec.append(r[EXEC])
    return gap, queue, batch, write, hit_exec


def exec_by_class(reqs, ps):
    """Summed exec_us of ok replies by request class, in ms."""
    sums = {}
    for r in ps.records:
        if r[STATUS] != OK:
            continue
        cls = request_class(reqs[r[IDX]])
        sums[cls] = sums.get(cls, 0.0) + r[EXEC] / 1000.0
    return sums


def request_class(req):
    p = req.params
    if req.kind == "game":
        return "game.%s.l%d" % (p["machine"], p["layers"])
    if req.kind == "patch":
        return "patch_l%d" % p["layers"]
    return {"register": "register", "logic": "logic", "decide": "decide",
            "oracle": "oracle", "control": "control"}[req.kind]


def span_name(req):
    return "req." + json.loads(req.line)["type"]


def client_trace(path, stream, ps, epoch_realtime_us):
    """The benchmark's own spans, in Chrome trace format: one span per
    request (named by request type, carrying its id) with transport, queue,
    batch, exec and write children laid out from the reply's envelope.  A
    pipelined connection gets one track per overlapping request."""
    pid = 1
    events = [{"ph": "M", "pid": pid, "name": "process_name",
               "args": {"name": "lphbench client"}}]
    lanes = {}  # (conn, lane) -> end of its last span (ns)
    per_track = {}
    for r in sorted(ps.records, key=lambda r: r[SEND]):
        if r[STATUS] != OK:
            continue
        send, recv = r[SEND], r[RECV]
        lane = 0
        while lanes.get((r[CONN], lane), -1) > send:
            lane += 1
        lanes[(r[CONN], lane)] = recv
        tid = r[CONN] * 100 + lane
        req = stream.reqs[r[IDX]]
        stages = [r[QUEUE] * 1000, r[BATCH] * 1000, r[EXEC] * 1000,
                  r[WRITE] * 1000]
        transport = max(0, (recv - send) - sum(stages))
        evs = per_track.setdefault(tid, [])
        evs.append(("B", send, span_name(req), {"id": r[IDX]}))
        t = send
        parts = [("transport", transport // 2), ("queue", stages[0]),
                 ("batch", stages[1]), ("exec", stages[2]),
                 ("write", stages[3]),
                 ("transport", transport - transport // 2)]
        for name, dur in parts:
            dur = max(0, min(dur, recv - t))
            evs.append(("B", t, name, None))
            t += dur
            evs.append(("E", t, name, None))
        evs.append(("E", recv, span_name(req), None))
    for tid, evs in sorted(per_track.items()):
        events.append({"ph": "M", "pid": pid, "tid": tid,
                       "name": "thread_name",
                       "args": {"name": "conn %d lane %d"
                                % (tid // 100, tid % 100)}})
        for ph, ts, name, args in evs:
            ev = {"ph": ph, "pid": pid, "tid": tid, "ts": ts / 1000.0,
                  "name": name, "cat": "lphbench"}
            if args:
                ev["args"] = args
            events.append(ev)
    with open(path, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events,
                   "otherData": {"dropped_spans": 0,
                                 "epoch_realtime_us": epoch_realtime_us}}, f)


def wire_timing(helper, workdir, stream):
    """In-process service::parse_request / Response::to_json timing, as
    (parse_us list, render_us list, req bytes, resp bytes, trace file)."""
    req_path = os.path.join(workdir, "wire.requests")
    with open(req_path, "w") as f:
        f.write("\n".join(stream.lines) + "\n")
    out_path = os.path.join(workdir, "wire.out")
    argv = [helper, "wire", "--requests", req_path, "--out", out_path]
    if stream.mode == "chains":
        argv.append("--chains")
    proc = subprocess.run(argv, stderr=subprocess.PIPE, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise BenchError("wire timing failed: %s" % proc.stderr[-400:])
    with open(out_path) as f:
        epoch = json.loads(f.readline())["epoch_realtime_us"]
        rows = [list(map(int, line.split("\t"))) for line in f]
    events = [{"ph": "M", "pid": 2, "name": "process_name",
               "args": {"name": "lphbench wire (in-process)"}},
              {"ph": "M", "pid": 2, "tid": 0, "name": "thread_name",
               "args": {"name": "wire"}}]
    for i, p0, p1, r0, r1, _, _ in rows:
        for name, a, b in (("wire.parse_request", p0, p1),
                           ("wire.to_json", r0, r1)):
            events.append({"ph": "B", "pid": 2, "tid": 0, "ts": a / 1000.0,
                           "name": name, "cat": "lphbench",
                           "args": {"line": i}})
            events.append({"ph": "E", "pid": 2, "tid": 0, "ts": b / 1000.0,
                           "name": name, "cat": "lphbench"})
    trace = os.path.join(workdir, "wire.trace")
    with open(trace, "w") as f:
        json.dump({"displayTimeUnit": "ms", "traceEvents": events,
                   "otherData": {"dropped_spans": 0,
                                 "epoch_realtime_us": epoch}}, f)
    return ([(r[2] - r[1]) / 1000.0 for r in rows],
            [(r[4] - r[3]) / 1000.0 for r in rows],
            [r[5] for r in rows], [r[6] for r in rows], trace)


def run_script(name, *args):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name)]
                          + list(args), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=600)
    return proc.returncode, proc.stdout, proc.stderr


def ratio(num, den):
    return num / den if den else 0.0


def per_layer(workload, stream, seconds, lphd, helper, workdir, refs,
              problems, report):
    """The --trace 1 run: an untraced full pass (counters and envelope),
    then an untraced and a traced pass over the same short prefix (span
    self times and the tracing overhead), then in-process wire timing."""
    server, timed, metrics, _ = measure(lphd, helper, workdir, "full",
                                        stream, seconds, problems)
    cross_check(server, metrics, timed, problems)
    checked, _ = check_pass(stream.reqs, timed, refs, workdir, problems)

    limit = TRACE_LIMIT[workload]
    short = trace_prefix(workload, stream, limit)
    traced_stream = with_trace_ids(short)
    srv_b, timed_b, metrics_b, _ = measure(
        lphd, helper, workdir, "untraced", short, seconds, problems,
        limit=limit)
    cross_check(srv_b, metrics_b, timed_b, problems)
    check_pass(stream.reqs, timed_b, refs, workdir, problems)
    srv_t, timed_t, metrics_t, _ = measure(
        lphd, helper, workdir, "traced", traced_stream, seconds, problems,
        trace=True, limit=limit)
    cross_check(srv_t, metrics_t, timed_t, problems)
    check_pass(stream.reqs, timed_t, refs, workdir, problems)

    parse_us, render_us, req_bytes, resp_bytes, wire_trace = wire_timing(
        helper, workdir, stream)

    client = os.path.join(workdir, "client.trace")
    client_trace(client, traced_stream, timed_t,
                 timed_t.summary["epoch_realtime_us"])
    merged = os.path.join(workdir, "merged.trace")
    rc, _, err = run_script("trace_merge.py", "-o", merged, srv_t.trace_path,
                            client, wire_trace)
    if rc != 0:
        problems.append("trace_merge.py failed: %s" % err[-300:])
    rc, _, err = run_script("trace_lint.py", merged)
    if rc != 0:
        problems.append("trace_lint.py rejected the merged trace: %s"
                        % err[-600:])
    rc, out, err = run_script("trace_summary.py", merged, "--json")
    if rc != 0:
        problems.append("trace_summary.py failed: %s" % err[-300:])
        spans = {"spans": [], "dropped_spans": 0}
    else:
        spans = json.loads(out)
    by_span = {s["name"]: s for s in spans["spans"]}

    gap, queue, batch, write, hit_exec = stage_stats(timed, stream.mode)
    by_class = exec_by_class(stream.reqs, timed)
    game_ms = sum(v for k, v in by_class.items() if k.startswith("game."))
    q = TAIL_Q[workload]
    g = lambda name: float((metrics or {}).get(name, 0.0))
    hits, misses = g("service.memo.hits"), g("service.memo.misses")
    inc, full = g("service.patch.incremental"), g("service.patch.full")
    ok_t = sum(1 for r in timed_t.records if r[STATUS] == OK)
    ok_b = sum(1 for r in timed_b.records if r[STATUS] == OK)
    if stream.mode == "open":
        # The offered rate pins an open loop's throughput, so its overhead
        # is read from lphd CPU per reply instead.
        t_cost = timed_t.summary["server_cpu_ns"] / max(ok_t, 1)
        b_cost = timed_b.summary["server_cpu_ns"] / max(ok_b, 1)
        overhead, overhead_base = ratio(t_cost, b_cost) - 1.0, \
            "lphd CPU per reply, traced %.0f us vs untraced %.0f us" % (
                t_cost / 1e3, b_cost / 1e3)
    else:
        t_rps = ok_t / (timed_t.summary["phase_ns"] / 1e9)
        b_rps = ok_b / (timed_b.summary["phase_ns"] / 1e9)
        overhead, overhead_base = 1.0 - ratio(t_rps, b_rps), \
            "throughput, traced %.1f vs untraced %.1f req/s" % (t_rps, b_rps)

    wall_ms = sum((r[RECV] - r[SEND]) / 1e6 for r in timed_t.records
                  if r[STATUS] == OK)
    layer_spans = {}
    for name in ("transport", "queue", "batch", "exec", "write",
                 "wire.parse_request", "wire.to_json", "service.request",
                 "service.batch", "memo.lookup", "game.solve", "game.compile",
                 "game.chunk", "dtm.run_local", "cache.lookup"):
        s = by_span.get(name, {"count": 0, "self_ms": 0.0})
        layer_spans[name] = (s["count"], s["self_ms"])

    cpu_ok = sum(1 for r in timed.records if r[STATUS] == OK)
    late = [(r[SEND] - r[DUE]) / 1e6 for r in timed.records] \
        if stream.mode == "open" else [0.0]
    m = {
        "transport.gap_us.p50": (percentile(gap, 0.5), "us"),
        "transport.gap_us.tail": (percentile(gap, q), "us"),
        "wire.parse_us.p50": (percentile(parse_us, 0.5), "us"),
        "wire.render_us.p50": (percentile(render_us, 0.5), "us"),
        "wire.req_bytes": (ratio(sum(req_bytes), len(req_bytes)), "bytes"),
        "wire.resp_bytes": (ratio(sum(resp_bytes), len(resp_bytes)), "bytes"),
        "core.queue_us.p50": (percentile(queue, 0.5), "us"),
        "core.queue_us.tail": (percentile(queue, q), "us"),
        "core.batch_us.tail": (percentile(batch, q), "us"),
        "core.write_us.p50": (percentile(write, 0.5), "us"),
        "core.avg_batch": (g("service.avg_batch"), "requests"),
        "memo.hit_rate": (ratio(hits, hits + misses), "fraction"),
        "memo.hit_exec_us.p50": (percentile(hit_exec, 0.5), "us"),
        "memo.invalidated": (g("service.memo.invalidated"), "count"),
        "exec.game_ms": (game_ms, "ms"),
    }
    for cls in ("allsel.l0", "eulerian.l0", "coloring2.l1", "coloring3.l1",
                "implies.l2"):
        m["exec.game.%s_ms" % cls] = (by_class.get("game." + cls, 0.0), "ms")
    m.update({
        "game.compile_ms": (g("game.compile_ms"), "ms"),
        "game.compile_share": (ratio(g("game.compile_ms"), game_ms),
                               "fraction"),
        "game.compiled_classes": (g("game.compiled_classes"), "count"),
        "game.orbit_hits": (g("game.orbit_hits"), "count"),
        "game.packed_words_evaluated": (g("game.packed_words_evaluated"),
                                        "count"),
        "game.leaves_processed": (g("game.leaves_processed"), "count"),
        "game.local_runs": (g("game.local_runs"), "count"),
        "game.leaf_hit_ratio": (ratio(g("game.leaf_cache_hits"),
                                      g("game.leaves_processed")), "fraction"),
        "cache.hit_rate": (g("service.cache.hit_rate"), "fraction"),
        "cache.evictions": (g("service.cache.evictions"), "count"),
        "cache.entries": (g("service.cache.entries"), "count"),
        "exec.logic_ms": (by_class.get("logic", 0.0), "ms"),
        "exec.decide_ms": (by_class.get("decide", 0.0), "ms"),
        "exec.oracle_ms": (by_class.get("oracle", 0.0), "ms"),
        "oracle.divergences": (g("oracle.divergences"), "count"),
        "exec.patch_l0_ms": (by_class.get("patch_l0", 0.0), "ms"),
        "exec.patch_l1_ms": (by_class.get("patch_l1", 0.0), "ms"),
        "patch.incremental_ratio": (ratio(inc, inc + full), "fraction"),
        "patch.dirty_fraction": (g("service.patch.dirty_fraction"),
                                 "fraction"),
        "game.ball_runs": (g("game.ball_runs"), "count"),
        "game.partial_leaf_evals": (g("game.partial_leaf_evals"), "count"),
        "game.partial_fallbacks": (g("game.partial_fallbacks"), "count"),
        "store.graphs_resident": (g("service.graphs_resident"), "count"),
        "client.cpu_us_per_req": (timed.summary["client_cpu_ns"] / 1e3
                                  / max(cpu_ok, 1), "us"),
        "client.late_ms.tail": (percentile(late, q), "ms"),
        "trace.overhead_frac": (overhead, "fraction"),
        "trace.dropped_spans": (float(spans.get("dropped_spans", 0)),
                                "count"),
    })
    for name, (count, self_ms) in layer_spans.items():
        key = "span." + name
        m[key + ".count"] = (float(count), "count")
        m[key + ".self_ms"] = (self_ms, "ms")
        m[key + ".share"] = (ratio(self_ms, wall_ms), "fraction")

    bases = {
        "memo.hit_rate": "%d hits / %d lookups" % (hits, hits + misses),
        "game.compile_share": "%.1f ms compile / %.1f ms game exec"
        % (g("game.compile_ms"), game_ms),
        "game.leaf_hit_ratio": "%d leaf cache hits / %d leaves"
        % (g("game.leaf_cache_hits"), g("game.leaves_processed")),
        "cache.hit_rate": "%d hits / %d lookups"
        % (g("service.cache.hits"), g("service.cache.hits")
           + g("service.cache.misses")),
        "patch.incremental_ratio": "%d incremental / %d patch queries"
        % (inc, inc + full),
        "patch.dirty_fraction": "%d dirty / %d patched nodes"
        % (g("service.patch.dirty_nodes"), g("service.patch.total_nodes")),
        "core.avg_batch": "%d requests / %d batches"
        % (g("service.batched_requests"), g("service.batches")),
        "trace.overhead_frac": overhead_base,
        "transport.gap_us.tail": "p%g of %d ok replies" % (q * 100, len(gap)),
        "client.cpu_us_per_req": "%d ok replies" % cpu_ok,
    }
    report.append("per-layer, workload %s (counters and envelope: %d ok "
                  "replies of the full pass; spans: traced pass of %d "
                  "replies, %.1f ms summed client wall; wire: %d lines "
                  "in-process)" % (workload, cpu_ok, ok_t, wall_ms,
                                   len(parse_us)))
    for layer, names, moves in LAYERS:
        report.append("  [%s] should move: %s" % (layer, moves))
        for name in names:
            value, unit = m[name]
            base_text = bases.get(name)
            report.append("    %-34s %14.4f %-9s%s" % (
                name, value, unit, "  (" + base_text + ")" if base_text
                else ""))
    report.append("  spans (count, self ms, share of summed client wall "
                  "%.1f ms):" % wall_ms)
    for name, (count, self_ms) in layer_spans.items():
        report.append("    %-24s %8d %12.2f %8.4f" % (
            name, count, self_ms, ratio(self_ms, wall_ms)))
    report.append("  tracing overhead: %.4f (%s); dropped spans %d"
                  % (overhead, overhead_base, spans.get("dropped_spans", 0)))
    return m, checked, timed


# How each layer's metrics relate to the end-to-end ones (printed with the
# per-layer report; the choice of workloads is argued in README.md).
LAYERS = (
    ("transport: service/server, service/transport",
     ("transport.gap_us.p50", "transport.gap_us.tail"),
     "latency_p50_ms on mix"),
    ("wire: service/wire, service/json, graph/serialize",
     ("wire.parse_us.p50", "wire.render_us.p50", "wire.req_bytes",
      "wire.resp_bytes"),
     "server_cpu_ms_per_req, latency_p50_ms on mix"),
    ("queue and batching: service/core",
     ("core.queue_us.p50", "core.queue_us.tail", "core.batch_us.tail",
      "core.write_us.p50", "core.avg_batch"),
     "latency_tail_ms on mix"),
    ("memo: service/memo",
     ("memo.hit_rate", "memo.hit_exec_us.p50", "memo.invalidated"),
     "server_cpu_ms_per_req, latency_p50_ms on mix"),
    ("engine: hierarchy/game, hierarchy/compiled, dtm/local, dtm/view_cache,"
     " service/registry",
     ("exec.game_ms", "exec.game.allsel.l0_ms", "exec.game.eulerian.l0_ms",
      "exec.game.coloring2.l1_ms", "exec.game.coloring3.l1_ms",
      "exec.game.implies.l2_ms", "game.compile_ms", "game.compile_share",
      "game.compiled_classes", "game.orbit_hits",
      "game.packed_words_evaluated", "game.leaves_processed",
      "game.local_runs", "game.leaf_hit_ratio", "cache.hit_rate",
      "cache.evictions", "cache.entries"),
     "server_cpu_ms_per_req and latency_tail_ms on mix and games, "
     "throughput_rps on games"),
    ("logic, decide, oracle: logic, lang, graphalg, oracle",
     ("exec.logic_ms", "exec.decide_ms", "exec.oracle_ms",
      "oracle.divergences"),
     "server_cpu_ms_per_req on mix (oracle.divergences must stay 0)"),
    ("store and incremental: service/graph_store, patch tiers of service/core",
     ("exec.patch_l0_ms", "exec.patch_l1_ms", "patch.incremental_ratio",
      "patch.dirty_fraction", "game.ball_runs", "game.partial_leaf_evals",
      "game.partial_fallbacks", "store.graphs_resident"),
     "latency_tail_ms, throughput_rps, peak_rss_mb on patch"),
    ("harness",
     ("client.cpu_us_per_req", "client.late_ms.tail"),
     "nothing (they show the numbers measure lphd, not the client)"),
    ("tracing: obs",
     ("trace.overhead_frac", "trace.dropped_spans"),
     "nothing (must stay small)"),
)

# Requests in the traced pass: lphd's tracer keeps 16384 spans per thread,
# and the merged trace must have none dropped.
TRACE_LIMIT = {"mix": 400, "games": 40, "patch": 60}


def trace_prefix(workload, stream, limit):
    """The stream the traced (and the matching untraced) pass replays."""
    if workload == "mix":
        return Stream(stream.reqs, stream.lines[:limit], "open",
                      due=stream.due[:limit])
    return stream


# --- main -------------------------------------------------------------------

def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("mix", "games", "patch"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv[1:])
    if args.seconds <= 0:
        raise BenchError("--seconds must be positive")

    lphd, helper = build()
    workdir = os.path.join(BUILD, "run-%s-%d-%d-%d" % (
        args.workload, args.seed, args.trace, os.getpid()))
    os.makedirs(workdir, exist_ok=True)
    refs = References(helper)
    # Once per checkout (the run that also builds): the games universe's
    # reference answers, shared by every games run whatever its seed.
    prep_s = refs.resolve(gen.games_universe_jobs(), workdir)
    if prep_s:
        print("computed the games universe's reference answers in %.1f s"
              % prep_s)
    stream = make_stream(args.workload, args.seed, args.seconds)
    problems = []
    report = []

    if args.trace:
        metrics, checked, timed = per_layer(
            args.workload, stream, args.seconds, lphd, helper, workdir, refs,
            problems, report)
        units = {k: u for k, (_, u) in metrics.items()}
        values = {k: v for k, (v, _) in metrics.items()}
    else:
        setup_s, setup_samples = measure_setup(lphd, workdir, problems)
        server, timed, server_metrics, rss = measure(
            lphd, helper, workdir, "run", stream, args.seconds, problems)
        cross_check(server, server_metrics, timed, problems)
        checked, ref_s = check_pass(stream.reqs, timed, refs, workdir,
                                    problems)
        values, info = end_to_end(args.workload, stream, timed, args.seconds)
        values["peak_rss_mb"] = rss
        values["setup_s"] = setup_s
        units = dict(UNITS)
        report.append(
            "workload %s, seed %d: %d requests in the timed phase (%d ok, "
            "%d failed) over %.2f s; %d ok replies checked against "
            "references (%.1f s computing new ones)"
            % (args.workload, args.seed, info["samples"], info["ok"],
               info["failed"], info["phase_s"], checked, ref_s))
        if info["box_s"] < args.seconds:
            report.append("  the stream ran out after %.2f s of the %g s time "
                          "box: throughput_rps is over those %.2f s"
                          % (info["box_s"], args.seconds, info["box_s"]))
        report.append("  failed_frac %.4f fraction (errors + rejections + "
                      "unanswered / requests sent)"
                      % ratio(info["failed"], info["samples"]))
        report.append("  latency_tail_ms is p%g: %d samples, %d beyond it"
                      % (info["tail_q"] * 100, info["samples"],
                         info["beyond"]))
        report.append("  setup_s samples: %s" % ", ".join(
            "%.4f" % s for s in setup_samples))
        for name in UNITS:
            report.append("  %-24s %12.4f %s" % (name, values[name],
                                                 units[name]))

    attempted = len(timed.records)
    failed = sum(1 for r in timed.records if r[STATUS] != OK)
    for line in report:
        print(line)
    for p in problems:
        print("FAIL: " + p)
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        # A latency percentile that lands on a failed request is infinite,
        # and the peak RSS of an lphd that died is unknown (NaN); JSON has
        # neither, so they read as the largest float instead.
        "metrics": {k: {"value": values[k] if math.isfinite(values[k])
                        else sys.float_info.max, "unit": units[k]}
                    for k in sorted(values)},
    }
    print(json.dumps(result))
    if problems:
        return 1
    shutil.rmtree(workdir)  # a failed run keeps its files for inspection
    return 0


UNITS = {
    "throughput_rps": "req/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "server_cpu_ms_per_req": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


if __name__ == "__main__":
    # SIGTERM unwinds like an exception, so every lphd and helper this run
    # started is stopped before it exits.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        sys.exit(main(sys.argv))
    except BenchError as e:
        print("lphbench: %s" % e, file=sys.stderr)
        sys.exit(2)
