"""The `serve` workload: an open-loop client against a real partitiond.

One single-threaded client on 127.0.0.1 sends .fpb block uploads on a
fixed, seeded arrival schedule and polls each fresh job until it is done.
Arrival times are a Poisson process conditioned on its count (sorted
uniform times over the run), drawn once from SCHEDULE_SEED. Every upload
carries a fresh `seed`; a seeded share of requests are exact
resubmissions of a request sent at least RESUBMIT_LAG_S earlier, which the
daemon's result cache answers with 200 and the identical record.

A fresh job is timed from its scheduled send time until a poll sees it
done, so a stalled generator or a slow daemon both show.
"""

import ctypes
import http.client
import json
import os
import random
import signal
import subprocess
import time

# Every fresh request uploads BLOCK, the C-class (quadrant) block with a
# horizontal cutline that gen::derive_family cuts from the paper-scale
# ibm05 circuit, with its own job seed. One block keeps the job sizes alike:
# with a mix of block sizes, the median and tail turnaround of a 30 s run
# sit on steps between size classes and moved by 30 % or more between runs.
BLOCK = "ibm05C_H"
# Seed-commit capacity on a 4-CPU Xeon host, RelWithDebInfo, 2 thread
# workers: 7.4 fresh jobs/s of BLOCK, measured by a burst of 1020 uploads.
# Fresh uploads arrive at a third of that (2.48/s); resubmissions come on
# top. At two thirds of capacity, queueing made the tail turnaround of a
# 30 s run vary by about 45 % between runs.
ARRIVALS_PER_S = 2.92
RESUBMIT_SHARE = 0.15
RESUBMIT_LAG_S = 4.0
# The arrival trace is a constant of the workload, like its rate: a Poisson
# trace drawn from one fixed seed, so runs differ only in their job seeds
# and in which requests are resubmitted, not in how bursty the traffic is.
SCHEDULE_SEED = 1
WORKERS = 2
POLL_INTERVAL_S = 0.01
DRAIN_TIMEOUT_S = 60.0
SETUP_STARTS = 9
MAX_LATE_S = 1.0  # p99 send lateness above this invalidates the run

DAEMON_FLAGS = [
    f"--workers={WORKERS}",
    "--isolation=thread",
    "--queue-capacity=1024",
    "--default-budget=120",
    "--max-budget=120",
    "--log-level=warn",
]


class Request:
    def __init__(self, index, t, seed=None, target=None):
        self.index = index  # position in the schedule
        self.t = t  # scheduled send time, seconds from the run start
        self.seed = seed  # job seed of a fresh upload
        self.target = target  # index of the fresh request resubmitted
        self.deferred = False  # resubmission held until its target was done
        self.sent = None
        self.status = None
        self.body = None
        self.rtt = None
        self.job_id = None
        self.polls = []  # send times of the polls of this job
        self.poll_rtts = []
        self.done_at = None
        self.record = None
        self.record_body = None
        self.error = None


def build_schedule(seed, seconds):
    """Arrival list: fresh uploads and resubmissions. The arrival times and
    which slots resubmit are the workload's fixed traffic trace; `seed`
    picks the job seeds and the requests resubmitted."""
    trace = random.Random(SCHEDULE_SEED)
    total = max(1, round(ARRIVALS_PER_S * seconds))
    times = sorted(trace.uniform(0.0, seconds) for _ in range(total))
    candidates = [i for i, t in enumerate(times) if t >= times[0] + RESUBMIT_LAG_S]
    resubmit = set(trace.sample(candidates, min(len(candidates), round(total * RESUBMIT_SHARE))))

    rng = random.Random(seed)
    job_seeds = rng.sample(range(1, 2**31 - 1), total)
    schedule = []
    for i, t in enumerate(times):
        if i in resubmit:
            targets = [r.index for r in schedule if r.target is None and r.t <= t - RESUBMIT_LAG_S]
            schedule.append(Request(i, t, target=rng.choice(targets)))
        else:
            schedule.append(Request(i, t, seed=job_seeds[i]))
    return schedule


def http_call(port, method, path, body=None):
    """One request on its own connection (the daemon closes each one).
    Returns (status, body bytes, round-trip seconds)."""
    start = time.perf_counter()
    conn = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        headers = {"Content-Type": "application/octet-stream"} if body is not None else {}
        conn.request(method, path, body=body, headers=headers)
        response = conn.getresponse()
        data = response.read()
        return response.status, data, time.perf_counter() - start
    finally:
        conn.close()


def _die_with_parent():
    # PR_SET_PDEATHSIG: the daemon is killed if the benchmark dies first.
    ctypes.CDLL(None).prctl(1, signal.SIGKILL)


class Daemon:
    """A partitiond process with its own journal and spool directory."""

    def __init__(self, binary, state_dir, log_path):
        os.makedirs(os.path.join(state_dir, "spool"), exist_ok=True)
        self.port_file = os.path.join(state_dir, "port")
        self.log = open(log_path, "ab")
        self.started = time.perf_counter()
        self.process = subprocess.Popen(
            [binary, "--listen=0", f"--port-file={self.port_file}",
             f"--journal={os.path.join(state_dir, 'journal')}",
             f"--spool-dir={os.path.join(state_dir, 'spool')}"] + DAEMON_FLAGS,
            stdout=self.log, stderr=self.log, preexec_fn=_die_with_parent)
        self.port = None

    def wait_healthy(self, timeout=30.0):
        """Seconds from exec to the first GET /healthz answered 200."""
        while time.perf_counter() - self.started < timeout:
            if self.process.poll() is not None:
                raise RuntimeError(f"partitiond exited with {self.process.returncode}")
            if self.port is None and os.path.exists(self.port_file):
                text = open(self.port_file).read().strip()
                self.port = int(text) if text else None
            if self.port is not None:
                try:
                    status, _, _ = http_call(self.port, "GET", "/healthz")
                    if status == 200:
                        return time.perf_counter() - self.started
                except OSError:
                    pass
            time.sleep(0.0005)
        raise RuntimeError("partitiond did not become healthy")

    def peak_rss_kb(self):
        with open(f"/proc/{self.process.pid}/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
        raise RuntimeError("no VmHWM for partitiond")

    def stop(self):
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.log.close()


def start_daemon(binary, run_dir):
    """Starts partitiond SETUP_STARTS times on fresh state and keeps the
    last one running; returns (daemon, set-up seconds of each start)."""
    setups = []
    daemon = None
    for k in range(SETUP_STARTS):
        if daemon is not None:
            daemon.stop()
        daemon = Daemon(binary, os.path.join(run_dir, f"daemon{k}"),
                        os.path.join(run_dir, "partitiond.log"))
        try:
            setups.append(daemon.wait_healthy())
        except Exception:
            daemon.stop()
            raise
    return daemon, setups


def drive(port, schedule, upload, seconds, trace, spans):
    """Runs the schedule against the daemon, uploading the bytes `upload`;
    fills in every Request and returns the run's wall time."""
    t0 = time.perf_counter()
    clock = lambda: time.perf_counter() - t0  # noqa: E731
    pending = {}  # job id -> fresh Request awaiting done
    waiting = []  # resubmissions whose target is not done yet
    next_send = 0

    def traced(request):
        # Even fresh jobs record spans and odd ones do not, so the traced
        # run can report its own overhead; cache hits always record.
        return request.target is not None or request.index % 2 == 0

    def record_span(name, request, start, end):
        if trace and traced(request):
            spans.append({"name": name, "sample": request.index,
                          "start_s": start, "end_s": end})

    def send(r):
        r.sent = clock()
        seed = r.seed if r.target is None else schedule[r.target].seed
        try:
            r.status, r.body, r.rtt = http_call(port, "POST", f"/partition?seed={seed}", upload)
        except OSError as error:
            r.error = f"POST failed: {error}"
            return
        record_span("svc.hit" if r.target is not None else "svc.submit", r, r.sent, r.sent + r.rtt)
        if r.target is not None:
            target = schedule[r.target]
            if r.status != 200:
                r.error = f"resubmission answered {r.status}"
            elif r.body != target.record_body:
                r.error = "resubmission record differs from the job's record"
            return
        if r.status != 202:
            r.error = f"upload answered {r.status}: {r.body[:200]!r}"
            return
        r.job_id = json.loads(r.body)["id"]
        pending[r.job_id] = r

    def poll(r):
        start = clock()
        r.polls.append(start)
        try:
            status, body, rtt = http_call(port, "GET", f"/jobs/{r.job_id}")
        except OSError as error:
            r.error = f"poll failed: {error}"
            del pending[r.job_id]
            return
        r.poll_rtts.append(rtt)
        record_span("svc.poll", r, start, start + rtt)
        if status != 200:
            r.error = f"poll answered {status}"
            del pending[r.job_id]
            return
        record = json.loads(body)
        if record.get("state") in ("queued", "running"):
            return
        del pending[r.job_id]
        r.done_at = start + rtt
        r.record = record
        r.record_body = body
        if record.get("state") != "done" or record.get("status") != "ok":
            r.error = f"job ended {record.get('state')}/{record.get('status')}"
        elif record.get("truncated"):
            r.error = "job truncated"

    while True:
        now = clock()
        if next_send < len(schedule) and schedule[next_send].t <= now:
            r = schedule[next_send]
            next_send += 1
            target = schedule[r.target] if r.target is not None else None
            if target is not None and target.done_at is None and target.error is None:
                r.deferred = True
                waiting.append(r)
            elif target is not None and target.error is not None:
                r.error = "resubmitted job failed"
            else:
                send(r)
            continue
        ready = [r for r in waiting if schedule[r.target].done_at is not None
                 or schedule[r.target].error is not None]
        if ready:
            r = ready[0]
            waiting.remove(r)
            if schedule[r.target].error is not None:
                r.error = "resubmitted job failed"
            else:
                send(r)
            continue
        if pending:
            r = min(pending.values(), key=lambda p: p.polls[-1] if p.polls else p.sent)
            due = (r.polls[-1] if r.polls else r.sent) + POLL_INTERVAL_S
            if due <= now:
                poll(r)
                continue
        else:
            due = float("inf")
        if next_send >= len(schedule) and not pending and not waiting:
            break
        if now > seconds + DRAIN_TIMEOUT_S:
            for r in list(pending.values()) + waiting:
                r.error = "never finished"
            break
        next_event = min(due, schedule[next_send].t if next_send < len(schedule) else float("inf"))
        time.sleep(min(max(next_event - now, 0.0), 0.005))
    return clock()


def scrape(port):
    """Reads /metrics.json and /progress; returns (metrics, progress, rtts)."""
    rtts = []
    status, body, rtt = http_call(port, "GET", "/metrics.json")
    rtts.append(rtt)
    metrics = json.loads(body) if status == 200 else {}
    status, body, rtt = http_call(port, "GET", "/progress")
    rtts.append(rtt)
    progress = json.loads(body) if status == 200 else {}
    return metrics, progress, rtts
