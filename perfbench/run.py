#!/usr/bin/env python3
"""The xmlprop benchmark: end-to-end and per-layer numbers, one workload
per invocation, with every op's output checked against a known answer.

    python3 perfbench/run.py --workload doc_oneshot --seed 1 --seconds 40 \
        --trace 0

Run it from the root of a source checkout. It builds `xmlprop` (through
the repository's own top-level project) and the helpers `pblayers` and
`pbcalibrate` from source into $CARGO_TARGET_DIR (default .bench_build),
generates its inputs from --seed under that directory, measures for
--seconds and prints, as the last line of stdout, one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones.
Human-readable lines (input sizes, per-op percentiles with sample counts,
daemon crash evidence) come before it. `--workload all` runs every
workload in turn. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import collections
import json
import math
import os
import random
import re
import shutil
import signal
import socket
import statistics
import struct
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout
import inputs  # noqa: E402

ROOT = os.getcwd()
PAPER_KEYS = os.path.join(ROOT, "data", "paper_keys.txt")
PAPER_RULES = os.path.join(ROOT, "data", "paper_transformation.rules")

WORKLOADS = ("doc_oneshot", "schema_oneshot", "served_mix")

# Input shapes. Every seed draws different bytes of the same shape, so
# that each percentile describes one shape.
DOC_BOOKS = 6000          # ~7.8 MB, ~0.47M nodes
DOC_VIOLATIONS = 25       # planted into the violating document
SERVED_BOOKS = 1900       # ~2.5 MB per served document
SERVED_VARIANTS = 3       # rewrite contents cycled per served slot
SCHEMA_SPEC = {"fields": 500, "depth": 10, "keys": 100}
# MakeWorkload's key set depends on its seed, and different key sets
# time differently (cover 63-86 ms over seeds 2-6), so the schema is
# the generator's default one for every run; --seed draws the FDs.
SCHEMA_SEED = 42
PROPAGATE_FDS = 8         # propagate command lines per schema pass
# Warm-up passes (one-shot), or daemons started (served); see setup_s.
SETUP_PASSES = {"doc_oneshot": 5, "schema_oneshot": 5, "served_mix": 3}

# The one-shot CPU times are reported in units of `pbcalibrate`,
# a fixed memory-bound job timed in the same run: CPU ms x CAL_REF_MS /
# (the job's CPU ms nearest in time). See README.md, "Why normalised CPU
# time".
CAL_REF_MS = 100.0
# How much of the job's drift to divide out: CPU ms x (CAL_REF_MS / job
# ms) ** exponent. Over sets of ten runs, the document ops' CPU time
# moved about 1:1 with the job's (log-log slopes 0.6-1.25) and the
# CPU-bound schema ops' about half as much (-0.7-0.8, mostly 0.2-0.35).
CAL_EXPONENT = {"doc_oneshot": 1.0, "schema_oneshot": 0.5}
CAL_ANSWER = b"838692\n"  # the job's checksum
CAL_EVERY_S = 1.0         # timed-loop seconds between calibration runs

OP_TIMEOUT_S = 60         # a one-shot op that runs longer has hung
REQUEST_DEADLINE_S = 10   # a served request unanswered by then failed
SERVED_MIX = (("check", 35), ("propagate", 35), ("shred", 15),
              ("cover", 10), ("design", 5))
REWRITE_EVERY = 25        # requests between document rewrites

_BUILT_IN = re.compile(rb"built in [0-9.eE+-]+ ms")


class BenchError(Exception):
    """The benchmark itself cannot run (not a failed op)."""


Tools = collections.namedtuple("Tools", "xmlprop pblayers calibrate")


# ------------------------------------------------------------- building

def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return os.path.join(ROOT, path)


def build():
    """Configures and builds xmlprop (with the repository's top-level
    build settings), pblayers and pbcalibrate; returns their paths."""
    for need in ("CMakeLists.txt", "src/CMakeLists.txt",
                 "data/paper_keys.txt", "data/paper_transformation.rules"):
        if not os.path.isfile(os.path.join(ROOT, need)):
            raise BenchError("run from the root of an xmlprop checkout: "
                             "%s is missing" % need)
    bdir = build_dir()
    if not os.path.isfile(os.path.join(bdir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", bdir]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", bdir, "--target", "xmlprop_tool", "pblayers",
           "pbcalibrate", "-j", str(min(4, os.cpu_count() or 1))]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        raise BenchError("build failed")
    return Tools(os.path.join(bdir, "repo", "src", "xmlprop"),
                 os.path.join(bdir, "pblayers"),
                 os.path.join(bdir, "pbcalibrate"))


# ------------------------------------------------------------- spawning

class Op:
    """One finished process: exit code, wall ms, CPU ms (user + system,
    all threads), output, peak RSS."""

    def __init__(self, code, ms, cpu_ms, out, err, rss_kb):
        self.code, self.ms, self.cpu_ms = code, ms, cpu_ms
        self.out, self.err, self.rss_kb = out, err, rss_kb


def spawn(argv, err_path):
    """Runs argv to exit, timing spawn to exit; stdout is piped, stderr
    goes to err_path. The child is reaped with wait4, so its own CPU
    time and ru_maxrss are known."""
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=err)
        timer = threading.Timer(OP_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
            ms = (time.perf_counter() - start) * 1000
        finally:
            timer.cancel()
            proc.stdout.close()
        proc.returncode = os.waitstatus_to_exitcode(status)
    with open(err_path, "rb") as f:
        err_bytes = f.read()
    cpu_ms = (usage.ru_utime + usage.ru_stime) * 1000
    return Op(proc.returncode, ms, cpu_ms, out, err_bytes, usage.ru_maxrss)


def parse_metrics(stderr):
    """The counters `--metrics` prints: {name: number}."""
    values = {}
    for line in stderr.decode(errors="replace").splitlines():
        m = re.match(r"\s+([a-z_.]+) = (-?[0-9.]+)", line)
        if m:
            values[m.group(1)] = float(m.group(2))
    return values


# ----------------------------------------------------------- statistics

def pct(samples, q):
    """The q-th percentile (nearest rank), or None unless at least ten
    samples lie beyond it. Failed ops are float('inf'): they miss every
    limit."""
    n = len(samples)
    if n == 0 or (q != 50 and n * (100 - q) / 100 < 10):
        return None
    ordered = sorted(samples)
    if q == 50:
        return statistics.median(ordered)
    return ordered[math.ceil(q / 100 * n) - 1]


def normalize(out):
    """The documented served/one-shot normalisations: the index build
    time digits, and the `engine cache:` memo line."""
    out = _BUILT_IN.sub(b"built in _ ms", out)
    return b"".join(line for line in out.splitlines(keepends=True)
                    if not line.startswith(b"engine cache:"))


# ---------------------------------------------------------------- inputs

def write_file(path, data):
    """Writes by rename-replace, so a reader never sees a partial file."""
    with open(path + ".tmp", "wb") as f:
        f.write(data)
    os.replace(path + ".tmp", path)


def input_dir(name):
    """One directory per input set, overwritten by the next seed."""
    path = os.path.join(build_dir(), "inputs", name)
    os.makedirs(path, exist_ok=True)
    return path


def doc_inputs(seed):
    """Two ~8 MB documents: one satisfies the paper's keys, the other has
    DOC_VIOLATIONS planted violations."""
    d = input_dir("doc")
    docs = {}
    for name, sub_seed, planted in (("good", 2 * seed, 0),
                                    ("bad", 2 * seed + 1, DOC_VIOLATIONS)):
        xml, answers = inputs.make_document(sub_seed, DOC_BOOKS, planted)
        path = os.path.join(d, name + ".xml")
        write_file(path, xml)
        answers["bytes"] = len(xml)
        docs[name] = (path, answers)
    return d, docs


def schema_inputs(pblayers, seed):
    d = input_dir("schema")
    cmd = [pblayers, "gen-schema", "--seed", str(SCHEMA_SEED),
           "--fields", str(SCHEMA_SPEC["fields"]),
           "--depth", str(SCHEMA_SPEC["depth"]),
           "--keys", str(SCHEMA_SPEC["keys"]), "--out", d]
    if subprocess.run(cmd).returncode != 0:
        raise BenchError("pblayers gen-schema failed")
    with open(os.path.join(d, "fds.json")) as f:
        pool = json.load(f)
    fds = inputs.fd_pool(pool, seed, PROPAGATE_FDS)
    return {"keys": os.path.join(d, "keys.txt"),
            "rules": os.path.join(d, "rules.txt"),
            "fds_json": os.path.join(d, "fds.json"),
            "fds": fds, "fields": pool["fields"], "depth": pool["depth"],
            "nkeys": pool["keys"], "dir": d}


# ------------------------------------------------------- one-shot runner

class Checker:
    """Known-answer checks for one command line. `check(op)` returns an
    error string, or None when the output is right."""

    def __init__(self, kind, argv, check, nbytes=0):
        self.kind, self.argv, self._check = kind, argv, check
        self.nbytes = nbytes  # document bytes the command reads
        self.reference = None  # normalised warm-up output

    def check(self, op):
        problem = self._check(op)
        if problem is None:
            got = normalize(op.out)
            if self.reference is None:
                self.reference = got
            elif got != self.reference:
                problem = "output differs from the first run"
        return problem


def check_doc_check(answers):
    def check(op):
        want_code = 2 if answers["violations"] else 0
        if op.code != want_code:
            return "exit %d, want %d" % (op.code, want_code)
        lines = op.out.decode().splitlines()
        m = re.match(r"index: (\d+) nodes", lines[0]) if lines else None
        if not m or int(m.group(1)) != answers["nodes"]:
            return "index line %r, want %d nodes" % (
                lines[:1], answers["nodes"])
        found = sum(1 for line in lines if line.startswith("VIOLATION:"))
        if found != answers["violations"]:
            return "%d violations, want %d" % (found, answers["violations"])
        last = ("%d violation(s)" % found if found else
                "OK: document satisfies all 7 constraint(s)")
        if lines[-1] != last:
            return "last line %r, want %r" % (lines[-1], last)
        return None
    return check


def csv_row_counts(out):
    counts, current = {}, None
    for line in out.decode().splitlines():
        if line.startswith("# index:"):
            continue
        if line.startswith("# "):
            current = line[2:]
            counts[current] = -1  # the header row
        elif current is not None:
            counts[current] += 1
    return counts


def check_doc_shred(answers):
    def check(op):
        if op.code != 0:
            return "exit %d" % op.code
        counts = csv_row_counts(op.out)
        if counts != answers["rows"]:
            return "rows %r, want %r" % (counts, answers["rows"])
        return None
    return check


def check_exit0(op):
    return None if op.code == 0 and op.out else "exit %d" % op.code


def check_cover(op):
    if op.code != 0 or not op.out.startswith(b"Minimum cover for U("):
        return "exit %d, output %r" % (op.code, op.out[:40])
    return None


def check_propagate(fd, verdict):
    want = ("PROPAGATED: " if verdict else "NOT PROPAGATED: ") + fd + " on U"
    def check(op):
        if op.code != (0 if verdict else 2):
            return "exit %d for %s" % (op.code, want)
        if not op.out.decode().startswith(want + "  (implication calls: "):
            return "output %r, want %r" % (op.out[:80], want)
        return None
    return check


def doc_checkers(x, docs):
    out = []
    for name in ("good", "bad"):
        path, answers = docs[name]
        out.append(Checker("check", [x, "check", "--keys", PAPER_KEYS,
                                     "--doc", path, "--index"],
                           check_doc_check(answers), answers["bytes"]))
    for name in ("good", "bad"):
        path, answers = docs[name]
        out.append(Checker("shred", [x, "shred", "--rules", PAPER_RULES,
                                     "--doc", path, "--index", "--csv"],
                           check_doc_shred(answers), answers["bytes"]))
    return out


def schema_checkers(x, schema):
    base = ["--keys", schema["keys"], "--rules", schema["rules"]]
    out = [Checker("cover", [x, "cover"] + base + ["--engine"], check_cover),
           Checker("design", [x, "design"] + base, check_exit0)]
    for fd, verdict in schema["fds"]:
        out.append(Checker("propagate",
                           [x, "propagate"] + base + ["--engine", "--fd", fd],
                           check_propagate(fd, verdict)))
    return out


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def record(self, kind, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.errors) < 5:
                self.errors.append("%s: %s" % (kind, problem))


def run_oneshot(tools, checkers, passes, seconds, err_path, tally,
                exponent):
    """Warm-up passes, then the timed loop over the same command lines,
    in a fixed order, until `seconds` elapse. Samples are kept per kind
    of op, as wall ms, CPU ms and normalised CPU ms; a failed op is +inf.
    A pass is one run of every command line; the normalised CPU seconds
    of each complete pass, warm-up or timed, are kept for setup_s. The
    calibration job runs before each warm-up pass, about once a second
    in the loop and once after it."""
    calibration = []  # (time, CPU ms) of each calibration run

    def calibrate():
        op = spawn([tools.calibrate], err_path)
        if op.code != 0 or op.out != CAL_ANSWER:
            raise BenchError("pbcalibrate failed")
        calibration.append((time.perf_counter(), op.cpu_ms))

    def run(c):
        """Spawns and checks one op; returns its end time, CPU ms and
        wall ms, the last two +inf if it failed."""
        nonlocal peak_kb, children
        op = spawn(c.argv, err_path)
        failed = c.check(op)
        tally.record(c.kind, failed)
        peak_kb, children = max(peak_kb, op.rss_kb), children + 1
        if failed:
            return time.perf_counter(), float("inf"), float("inf")
        return time.perf_counter(), op.cpu_ms, op.ms

    peak_kb, children = 0, 0  # the largest ru_maxrss of any child
    wall, cpu = {}, {}        # kind -> samples of the timed loop
    setup_wall = []
    passes_run = []           # each complete pass: [(time, CPU ms)]
    for _ in range(passes):
        calibrate()
        start = time.perf_counter()
        passes_run.append([run(c)[:2] for c in checkers])
        setup_wall.append(time.perf_counter() - start)
    processed = 0
    start = time.perf_counter()
    last_cal = start
    while time.perf_counter() - start < seconds:
        one_pass = []
        for c in checkers:
            if time.perf_counter() - last_cal >= CAL_EVERY_S:
                calibrate()
                last_cal = time.perf_counter()
            t, cpu_ms, ms = run(c)
            one_pass.append((t, cpu_ms))
            cpu.setdefault(c.kind, []).append((t, cpu_ms))
            wall.setdefault(c.kind, []).append(ms)
            processed += c.nbytes
            if time.perf_counter() - start >= seconds:
                break
        else:
            passes_run.append(one_pass)
    elapsed = time.perf_counter() - start
    calibrate()

    def normalised(t, cpu_ms):
        """CPU ms scaled by the calibration job as it ran nearest in time
        (the mean of the two closest runs): the host's load moves over
        seconds, and a run-wide median would not follow it."""
        near = sorted(calibration, key=lambda cal: abs(cal[0] - t))[:2]
        return cpu_ms * (CAL_REF_MS / statistics.mean(
            c for _, c in near)) ** exponent

    norm = {kind: [normalised(t, c) for t, c in v] for kind, v in cpu.items()}
    pass_norm = [sum(normalised(t, c) for t, c in p) / 1000
                 for p in passes_run]
    print("  calibration job: %.2f ms CPU (median of %d)" % (
        statistics.median(c for _, c in calibration), len(calibration)))
    print("  peak rss: %.2f MB, max of %d children" % (peak_kb / 1024.0,
                                                         children))
    print("  setup: %.3f s wall (median of %d warm-up passes), %.3f s "
          "normalised CPU (median of %d passes)" % (
              statistics.median(setup_wall), passes,
              statistics.median(pass_norm), len(pass_norm)))
    report_samples("wall", wall)
    report_samples("cpu", {k: [c for _, c in v] for k, v in cpu.items()})
    report_samples("norm", norm)
    return {"setup_s": statistics.median(pass_norm), "wall": wall,
            "norm": norm, "elapsed_s": elapsed, "processed": processed,
            "peak_rss_mb": peak_kb / 1024.0}


def ok_share(tally):
    return (tally.attempted - tally.failed) / tally.attempted


def report_samples(clock, samples, percentiles=(50, 90, 99)):
    """Human-readable per-op percentiles with their sample counts."""
    for kind, values in sorted(samples.items()):
        parts = ["p%d %.2f ms" % (q, pct(values, q)) for q in percentiles
                 if pct(values, q) is not None]
        print("  %-10s %-4s n=%-5d %s" % (kind, clock, len(values),
                                          ", ".join(parts)))


def oneshot_metrics(r, tally, query, derive):
    """The end-to-end metrics of a one-shot workload: the set-up pass and
    the medians of its `query` and `derive` ops, in normalised CPU time
    (see README.md for why)."""
    return {
        "setup_s": (r["setup_s"], "s"),
        "query_ref_ms.p50": (pct(r["norm"][query], 50), "ms"),
        "derive_ref_ms.p50": (pct(r["norm"][derive], 50), "ms"),
        "peak_rss_mb": (r["peak_rss_mb"], "MB"),
        "ok_share": (ok_share(tally), "share"),
    }


def doc_oneshot(tools, seed, seconds, tally):
    x = tools.xmlprop
    _, docs = doc_inputs(seed)
    for name, (path, answers) in sorted(docs.items()):
        print("input %s.xml: %d bytes, %d nodes, %d planted violations, "
              "rows %s" % (name, answers["bytes"], answers["nodes"],
                           answers["violations"], answers["rows"]))
    r = run_oneshot(tools, doc_checkers(x, docs),
                    SETUP_PASSES["doc_oneshot"],
                    seconds, os.path.join(build_dir(), "inputs", "doc.err"),
                    tally, CAL_EXPONENT["doc_oneshot"])
    print("  check_ms.p50 %.2f ms, shred_ms.p50 %.2f ms, ingest_mb_per_s "
          "%.3f MB/s (wall clock)" % (
              pct(r["wall"]["check"], 50), pct(r["wall"]["shred"], 50),
              r["processed"] / 1e6 / r["elapsed_s"]))
    return oneshot_metrics(r, tally, "check", "shred")


def schema_oneshot(tools, seed, seconds, tally):
    x = tools.xmlprop
    schema = schema_inputs(tools.pblayers, seed)
    print("input schema: %d fields, depth %d, %d keys; %d propagate FDs "
          "(%d propagated)" % (schema["fields"], schema["depth"],
                               schema["nkeys"], len(schema["fds"]),
                               sum(1 for _, v in schema["fds"] if v)))
    r = run_oneshot(tools, schema_checkers(x, schema),
                    SETUP_PASSES["schema_oneshot"], seconds,
                    os.path.join(build_dir(), "inputs", "schema.err"), tally,
                    CAL_EXPONENT["schema_oneshot"])
    w = r["wall"]
    p90 = pct(w["propagate"], 90)
    print("  cover_ms.p50 %.2f ms, design_ms.p50 %.2f ms, propagate_ms.p50 "
          "%.2f ms, propagate_ms.p90 %s (wall clock)" % (
              pct(w["cover"], 50), pct(w["design"], 50),
              pct(w["propagate"], 50),
              "%.2f ms" % p90 if p90 is not None else "n/a"))
    return oneshot_metrics(r, tally, "propagate", "cover")


# ------------------------------------------------------------ served_mix

class DaemonGone(Exception):
    """The daemon died, hung past the deadline or refused the socket."""


def frame_request(sock_path, payload, deadline_s):
    """One request/reply exchange of the documented wire protocol: a
    4-byte little-endian length, then one JSON line. Returns the reply
    object; raises DaemonGone on EOF, refusal or a missed deadline."""
    end = time.perf_counter() + deadline_s
    s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
    try:
        s.settimeout(deadline_s)
        s.connect(sock_path)
        body = json.dumps(payload).encode() + b"\n"
        s.sendall(struct.pack("<I", len(body)) + body)

        def read(n):
            data = b""
            while len(data) < n:
                left = end - time.perf_counter()
                if left <= 0:
                    raise DaemonGone("no reply within %d s" % deadline_s)
                s.settimeout(left)
                chunk = s.recv(n - len(data))
                if not chunk:
                    raise DaemonGone("connection closed before the reply")
                data += chunk
            return data

        size = struct.unpack("<I", read(4))[0]
        return json.loads(read(size))
    except socket.timeout:
        raise DaemonGone("no reply within %d s" % deadline_s)
    except OSError as e:
        raise DaemonGone("socket error: %s" % e)
    finally:
        s.close()


class Daemon:
    """`xmlprop serve --workers 2` as a child process."""

    def __init__(self, x, workdir):
        self.sock = os.path.relpath(os.path.join(workdir, "d.sock"), ROOT)
        if os.path.exists(self.sock):
            os.unlink(self.sock)
        self.err_path = os.path.join(workdir, "daemon.err")
        self._err = open(self.err_path, "wb")
        # A relative socket path keeps it under the AF_UNIX length limit.
        self.proc = subprocess.Popen(
            [x, "serve", "--socket", "d.sock", "--workers", "2"],
            cwd=workdir, stdout=subprocess.DEVNULL, stderr=self._err)

    def alive(self):
        return self.proc.poll() is None

    def wait_ready(self, deadline_s):
        end = time.perf_counter() + deadline_s
        while time.perf_counter() < end:
            if not self.alive():
                raise DaemonGone("exited during start-up")
            try:
                if frame_request(self.sock, {"op": "ping"},
                                 REQUEST_DEADLINE_S).get("body") == "pong":
                    return
            except DaemonGone:
                time.sleep(0.005)
        raise DaemonGone("no pong within %d s" % deadline_s)

    def rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmRSS for the daemon")

    def evidence(self):
        """Exit status and the last lines of the daemon's stderr."""
        code = self.proc.poll()
        if code is None:
            status = "alive"
        elif code < 0:
            status = "killed by signal %d (%s)" % (
                -code, signal.Signals(-code).name)
        else:
            status = "exited with code %d" % code
        with open(self.err_path, "rb") as f:
            tail = f.read().decode(errors="replace").splitlines()[-5:]
        return status, tail

    def stop(self):
        """Asks for a clean shutdown; kills after 10 s; always reaps."""
        if self.alive():
            try:
                frame_request(self.sock, {"op": "shutdown"}, 5)
            except DaemonGone:
                pass
            try:
                self.proc.wait(10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
        self.proc.wait()
        self._err.close()


class ServedInputs:
    """Two document slots (A satisfies the keys, B has planted
    violations) with SERVED_VARIANTS contents each, the 500-field schema,
    and the one-shot reference output of every distinct command line."""

    def __init__(self, tools, seed, tally):
        x = tools.xmlprop
        self.dir = input_dir("served")
        self.schema = schema_inputs(tools.pblayers, seed)
        self.variants = []  # [slot][variant] -> (bytes, answers)
        for slot, planted in enumerate((0, 10)):
            self.variants.append([
                inputs.make_document(1000 * seed + 10 * slot + v,
                                     SERVED_BOOKS, planted)
                for v in range(SERVED_VARIANTS)])
        self.paths = [os.path.join(self.dir, n) for n in ("A.xml", "B.xml")]
        self.version = [0, 0]
        self.lock = threading.Lock()
        base = ["--keys", self.schema["keys"], "--rules",
                self.schema["rules"]]
        # argv -> {variant: (exit code, normalised stdout)}; the schema
        # commands do not depend on a variant (key None).
        self.reference = {}
        self.argvs = {"check": [], "shred": [], "propagate": [],
                      "cover": [["cover"] + base + ["--engine"]],
                      "design": [["design"] + base]}
        for slot, path in enumerate(self.paths):
            self.argvs["check"].append(
                ["check", "--keys", PAPER_KEYS, "--doc", path, "--index"])
            self.argvs["shred"].append(
                ["shred", "--rules", PAPER_RULES, "--doc", path, "--index",
                 "--csv"])
        for fd, _ in self.schema["fds"]:
            self.argvs["propagate"].append(
                ["propagate"] + base + ["--engine", "--fd", fd])
        err = os.path.join(self.dir, "oneshot.err")
        for slot, path in enumerate(self.paths):
            for v, (xml, answers) in enumerate(self.variants[slot]):
                write_file(path, xml)
                for kind, check in (("check", check_doc_check(answers)),
                                    ("shred", check_doc_shred(answers))):
                    argv = self.argvs[kind][slot]
                    op = spawn([x] + argv, err)
                    tally.record("reference " + kind, check(op))
                    self.reference.setdefault(tuple(argv), {})[v] = (
                        op.code, normalize(op.out))
            write_file(path, self.variants[slot][0][0])
        checks = [check_cover, check_exit0] + [
            check_propagate(fd, verdict) for fd, verdict in self.schema["fds"]]
        schema_argvs = (self.argvs["cover"] + self.argvs["design"] +
                        self.argvs["propagate"])
        for argv, check in zip(schema_argvs, checks):
            op = spawn([x] + argv, err)
            tally.record("reference " + argv[0], check(op))
            self.reference[tuple(argv)] = {None: (op.code, normalize(op.out))}

    def distinct_argvs(self):
        return [a for kind in ("check", "shred", "cover", "design",
                               "propagate") for a in self.argvs[kind]]

    def slot_of(self, argv):
        return self.paths.index(argv[4]) if argv[0] in ("check",
                                                        "shred") else None

    def versions(self, argv):
        slot = self.slot_of(argv)
        return None if slot is None else self.version[slot]

    def rewrite(self, slot):
        """Rename-replaces one document with its next same-size variant.
        The version moves only once the new file is in place, so a
        request that saw the new version cannot have read the old file."""
        with self.lock:
            v = (self.version[slot] + 1) % SERVED_VARIANTS
            write_file(self.paths[slot], self.variants[slot][v][0])
            self.version[slot] += 1

    def verify(self, argv, v_from, v_to, reply):
        """None if the reply equals the one-shot reference of a document
        version that was current at some point while it was in flight."""
        if reply.get("reject"):
            return "rejected: %s %s" % (reply["reject"], reply.get("err"))
        refs = self.reference[tuple(argv)]
        if v_from is None:
            wanted = [refs[None]]
        else:
            wanted = [refs[v % SERVED_VARIANTS]
                      for v in range(v_from, v_to + 1)]
        got = (reply.get("exit_code"),
               normalize(reply.get("out", "").encode()))
        return None if got in wanted else "reply differs from one-shot"


def served_setup(x, served, tally):
    """Spawn, first successful ping, one answered request of each
    distinct argv. Returns (seconds, daemon) or raises DaemonGone with
    the daemon attached."""
    start = time.perf_counter()
    daemon = Daemon(x, served.dir)
    try:
        daemon.wait_ready(30)
        for argv in served.distinct_argvs():
            v = served.versions(argv)
            reply = frame_request(daemon.sock, {"op": "run", "argv": argv},
                                  REQUEST_DEADLINE_S)
            tally.record("setup " + argv[0], served.verify(argv, v, v, reply))
    except DaemonGone as e:
        e.daemon = daemon
        raise
    return time.perf_counter() - start, daemon


class Client(threading.Thread):
    """One closed-loop connection: sends its next request only after the
    previous reply arrived."""

    def __init__(self, run, index, seed):
        super().__init__()
        self.run_, self.rng = run, random.Random(seed * 1000 + index)

    def draw(self):
        kinds = [k for k, _ in SERVED_MIX]
        kind = self.rng.choices(kinds, [w for _, w in SERVED_MIX])[0]
        return self.rng.choice(self.run_.served.argvs[kind])

    def run(self):
        r = self.run_
        while not r.stop.is_set() and time.perf_counter() < r.end:
            with r.lock:
                r.sent += 1
                n = r.sent
            if n % REWRITE_EVERY == 0:
                r.served.rewrite((n // REWRITE_EVERY) % 2)
            argv = self.draw()
            v_from = r.served.versions(argv)
            start = time.perf_counter()
            try:
                reply = frame_request(r.daemon.sock,
                                      {"op": "run", "argv": argv},
                                      REQUEST_DEADLINE_S)
            except DaemonGone as e:
                r.fail(argv[0], str(e))
                return
            ms = (time.perf_counter() - start) * 1000
            problem = r.served.verify(argv, v_from, r.served.versions(argv),
                                      reply)
            r.record(argv[0], ms, reply.get("wall_ms", 0.0), problem)


class ServedRun:
    """The timed closed loop of served_mix, with a liveness monitor."""

    def __init__(self, served, daemon, tally, seconds, seed, warm_rate):
        self.served, self.daemon, self.tally = served, daemon, tally
        self.lock = threading.Lock()
        self.stop = threading.Event()
        self.sent = 0
        self.samples = {}        # kind -> latencies (inf = failed)
        self.walls = []          # reply wall_ms of answered requests
        self.wires = []          # latency minus wall_ms
        self.failure = None
        self.failure_at = None
        self.start = time.perf_counter()
        self.end = self.start + seconds
        clients = [Client(self, i, seed) for i in range(2)]
        for c in clients:
            c.start()
        while any(c.is_alive() for c in clients):
            if not daemon.alive():
                self.fail_run("daemon died")
            time.sleep(0.02)
        self.wall = time.perf_counter() - self.start
        if self.failure is not None:
            self.count_unsent(warm_rate)

    def record(self, kind, ms, wall_ms, problem):
        with self.lock:
            self.tally.record(kind, problem)
            self.samples.setdefault(kind, []).append(
                ms if problem is None else float("inf"))
            if problem is None:
                self.walls.append(wall_ms)
                self.wires.append(ms - wall_ms)

    def fail(self, kind, why):
        """An unanswered request: it failed, and so does the run."""
        with self.lock:
            self.tally.record(kind, why)
            self.samples.setdefault(kind, []).append(float("inf"))
        self.fail_run(why)

    def fail_run(self, why):
        with self.lock:
            if self.failure is None:
                self.failure, self.failure_at = why, time.perf_counter()
        self.stop.set()

    def count_unsent(self, warm_rate):
        """Requests the closed loop would still have sent in the rest of
        the window are unanswered planned requests: counted as failed.
        The rate is the one the loop reached, or, when it failed in its
        first second, the warm-up's (requests per second of set-up)."""
        elapsed = self.failure_at - self.start
        sent = sum(len(v) for v in self.samples.values())
        rate = sent / elapsed if elapsed >= 1 else warm_rate
        left = max(0.0, self.end - self.failure_at)
        for _ in range(int(round(rate * left))):
            self.tally.record("unsent", "daemon gone")
            self.samples.setdefault("unsent", []).append(float("inf"))


def report_daemon(daemon, why):
    status, tail = daemon.evidence()
    print("  daemon failure: %s; daemon %s" % (why, status))
    for line in tail:
        print("  daemon stderr: %s" % line)


def served_mix(tools, seed, seconds, tally, stats=None):
    x = tools.xmlprop
    served = ServedInputs(tools, seed, tally)
    a = served.variants[0][0][1]
    print("input served docs: 2 x %d bytes (%d nodes), %d variants each; "
          "schema %d fields, %d keys; %d distinct argv" % (
              len(served.variants[0][0][0]), a["nodes"], SERVED_VARIANTS,
              served.schema["fields"], served.schema["nkeys"],
              len(served.distinct_argvs())))
    setups = []
    daemon = None
    passes = SETUP_PASSES["served_mix"]
    for i in range(passes):
        try:
            took, daemon = served_setup(x, served, tally)
        except DaemonGone as e:
            report_daemon(e.daemon, str(e))
            e.daemon.stop()
            tally.record("setup", str(e))  # the timed loop never starts
            return {"ok_share": (ok_share(tally), "share")}
        setups.append(took)
        if i + 1 < passes:
            daemon.stop()
    metrics = {"setup_s": (statistics.median(setups), "s"),
               "peak_rss_mb": (daemon.rss_mb(), "MB")}
    warm_rate = len(served.distinct_argvs()) / metrics["setup_s"][0]
    run = ServedRun(served, daemon, tally, seconds, seed, warm_rate)
    if run.failure is not None:
        report_daemon(daemon, run.failure)
    elif stats is not None:
        reply = frame_request(daemon.sock, {"op": "stats"},
                              REQUEST_DEADLINE_S)
        stats.update(json.loads(reply["body"]))
        stats["exec_ms"] = pct(run.walls, 50)
        stats["wire_ms"] = pct(run.wires, 50)
    daemon.stop()
    everything = [v for values in run.samples.values() for v in values]
    report_samples("wall", run.samples)
    print("  %d requests in %.1f s, daemon rss %.1f MB" % (
        len(everything), run.wall, metrics["peak_rss_mb"][0]))
    for name, q in (("request_ms.p50", 50), ("request_ms.p99", 99)):
        value = pct(everything, q)
        if value is not None and math.isfinite(value):
            metrics[name] = (value, "ms")
    metrics["ok_share"] = (ok_share(tally), "share")
    return metrics


# ----------------------------------------------------------- trace pass

# Per-layer metrics (--trace 1) and their units. The served-only ones
# come from the daemon's `stats` op and exist on served_mix alone.
PER_LAYER = (
    ("xml.parse_ms", "ms"), ("xml.parse_mb_per_s", "MB/s"),
    ("xml.index_ms", "ms"), ("xml.parsed_nodes", "count"),
    ("keys.check_ms", "ms"), ("keys.check_contexts", "count"),
    ("keys.tuples_hashed", "count"),
    ("transform.shred_ms", "ms"), ("transform.rows_emitted", "count"),
    ("transform.rows_deduped", "count"),
    ("relational.render_ms", "ms"), ("relational.render_bytes", "bytes"),
    ("engine.implies_us", "us"), ("engine.memo_hit_ratio", "ratio"),
    ("engine.ident_queries", "count"),
    ("closure.minimize_ms", "ms"), ("closure.queries", "count"),
    ("closure.counter_touches", "count"),
    ("core.cover_raw_ms", "ms"), ("core.min_cover_ms", "ms"),
    ("core.propagation_ms", "ms"), ("core.design_ms", "ms"),
    ("cover.prune_ratio", "ratio"),
    ("cli.spawn_ms", "ms"), ("check.unattributed_pct", "%"),
    ("shred.unattributed_pct", "%"),
    ("check.cpu_wall_ratio", "ratio"), ("shred.cpu_wall_ratio", "ratio"),
    ("cover.cpu_wall_ratio", "ratio"),
    ("service.encode_ms", "ms"), ("service.decode_ms", "ms"),
    ("service.cache_hit_us", "us"), ("service.cache_rebuild_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
)
SERVED_LAYER = (
    ("service.exec_ms.p50", "ms"), ("service.wire_ms.p50", "ms"),
    ("service.hit_ratio", "ratio"), ("service.invalidations", "count"),
    ("service.evictions", "count"), ("service.rejects", "count"),
)


class Spans:
    """This script's own spans around the processes it times; written out
    with the helper's in-process spans when the pass ends."""

    def __init__(self):
        self.origin = time.perf_counter()
        self.spans = []

    def spawn(self, name, argv, err):
        start = (time.perf_counter() - self.origin) * 1e6
        op = spawn(argv, err)
        self.spans.append({"name": name, "parent": -1, "start_us": start,
                           "end_us": start + op.ms * 1000})
        return op


def layer_pass(tools, seed, seconds, workload, tally):
    x, pblayers = tools.xmlprop, tools.pblayers
    _, docs = doc_inputs(seed)
    schema = schema_inputs(pblayers, seed)
    good, answers = docs["good"]
    work = input_dir("layers")
    err = os.path.join(work, "op.err")
    spans = Spans()

    def run_checked(name, checker, extra=()):
        op = spans.spawn(name, checker.argv + list(extra), err)
        tally.record(name, checker.check(op))
        return op

    helper = subprocess.run(
        [pblayers, "layers", "--keys", PAPER_KEYS, "--rules", PAPER_RULES,
         "--doc", good, "--schema-keys", schema["keys"],
         "--schema-rules", schema["rules"], "--fds", schema["fds_json"],
         "--seconds", str(seconds), "--work", work],
        stdout=subprocess.PIPE)
    if helper.returncode != 0:
        raise BenchError("pblayers layers failed")
    layers = json.loads(helper.stdout)
    m = dict(layers["metrics"])
    tally.record("layers", None if m["keys.violations"] == 0 else
                 "in-process check found violations in the clean document")
    m["xml.parse_mb_per_s"] = m["xml.doc_bytes"] / 1e6 / (
        m["xml.parse_ms"] / 1000)

    # Counts the program prints with --metrics.
    check, _, shred, _ = doc_checkers(x, docs)
    cover = schema_checkers(x, schema)[0]
    c = parse_metrics(run_checked("check --metrics", check,
                                  ["--metrics"]).err)
    m["keys.check_contexts"] = c["check.contexts"]
    m["keys.tuples_hashed"] = c["check.tuples_hashed"]
    c = parse_metrics(run_checked("shred --metrics", shred,
                                  ["--metrics"]).err)
    m["transform.rows_emitted"] = c["shred.rows_emitted"]
    m["transform.rows_deduped"] = c.get("shred.rows_deduped", 0.0)
    c = parse_metrics(run_checked("cover --metrics", cover,
                                  ["--metrics"]).err)
    hits, misses = c["implication.memo_hits"], c["implication.memo_misses"]
    m["engine.memo_hit_ratio"] = hits / (hits + misses)
    m["engine.ident_queries"] = c["implication.ident_queries"]
    m["closure.queries"] = c["closure.queries"]
    m["closure.counter_touches"] = c["closure.counter_touches"]
    m["cover.prune_ratio"] = (c["cover.candidates_pruned"] /
                              c["cover.candidates_generated"])

    # Spawn cost, and how much of one check / one shred the layers cover.
    m["cli.spawn_ms"] = statistics.median(
        spans.spawn("cli.spawn", [x, "help"], err).ms for _ in range(21))
    ops = {name: [run_checked(name, checker) for _ in range(5)]
           for name, checker in (("check", check), ("shred", shred),
                                 ("cover", cover))}
    e2e_check = statistics.median(op.ms for op in ops["check"])
    e2e_shred = statistics.median(op.ms for op in ops["shred"])
    # CPU over wall time of each op: the gated times are CPU times, which
    # a change that only loses parallelism leaves flat, while this drops.
    for name, runs in ops.items():
        m[name + ".cpu_wall_ratio"] = statistics.median(
            op.cpu_ms / op.ms for op in runs)
    doc_ms = m["cli.spawn_ms"] + m["xml.read_ms"] + m["xml.parse_ms"] + \
        m["xml.index_ms"]
    m["check.unattributed_pct"] = 100 * (
        e2e_check - doc_ms - m["keys.check_ms"]) / e2e_check
    m["shred.unattributed_pct"] = 100 * (
        e2e_shred - doc_ms - m["transform.shred_ms"] -
        m["relational.render_ms"]) / e2e_shred

    # Tracing overhead: the same check with and without --trace=FILE.
    plain, traced = [], []
    trace_file = os.path.join(work, "run_report.json")
    for _ in range(7):
        plain.append(run_checked("check", check).ms)
        traced.append(run_checked("check --trace", check,
                                  ["--trace=" + trace_file]).ms)
    m["obs.trace_overhead_pct"] = 100 * (
        statistics.median(traced) / statistics.median(plain) - 1)

    out = {name: (m[name], unit) for name, unit in PER_LAYER}
    if workload == "served_mix":
        stats = {}
        served_mix(tools, seed, 5, tally, stats=stats)
        if "exec_ms" in stats:
            total = stats["cache_hits"] + stats["cache_misses"]
            for name, value in (
                    ("service.exec_ms.p50", stats["exec_ms"]),
                    ("service.wire_ms.p50", stats["wire_ms"]),
                    ("service.hit_ratio", stats["cache_hits"] / total),
                    ("service.invalidations", stats["cache_invalidations"]),
                    ("service.evictions", stats["cache_evictions"]),
                    ("service.rejects", stats["requests_rejected"])):
                out[name] = (value, dict(SERVED_LAYER)[name])

    trace_dir = os.path.join(build_dir(), "traces")
    os.makedirs(trace_dir, exist_ok=True)
    path = os.path.join(trace_dir, "%s-%d.json" % (workload, seed))
    with open(path, "w") as f:
        json.dump({"helper_spans": layers["spans"],
                   "process_spans": spans.spans}, f)
    print("  spans written to %s" % os.path.relpath(path, ROOT))
    for name, (value, unit) in out.items():
        print("  %-26s %14.4f %s" % (name, value, unit))
    return out


# ------------------------------------------------------------------ main

def run_workload(tools, workload, seed, seconds, trace):
    tally = Tally()
    print("== %s seed %d, %s s, trace %d" % (workload, seed, seconds, trace))
    if trace:
        metrics = layer_pass(tools, seed, seconds, workload, tally)
    elif workload == "doc_oneshot":
        metrics = doc_oneshot(tools, seed, seconds, tally)
    elif workload == "schema_oneshot":
        metrics = schema_oneshot(tools, seed, seconds, tally)
    else:
        metrics = served_mix(tools, seed, seconds, tally)
    for e in tally.errors:
        print("  FAILED %s" % e)
    # A failed op times as +inf; such a percentile has no value to print.
    return {"correct": tally.failed == 0, "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()
                        if value is not None and math.isfinite(value)}}


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    try:
        tools = build()
        for workload in (WORKLOADS if args.workload == "all"
                         else (args.workload,)):
            result = run_workload(tools, workload, args.seed, args.seconds,
                                  args.trace)
            print(json.dumps(result), flush=True)
    except BenchError as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
