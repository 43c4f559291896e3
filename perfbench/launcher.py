"""Start the benchmark's child processes, one at a time, and time them.

Reads one JSON request per line on stdin, ``{"argv", "stdout", "stderr",
"timeout"}``, starts ``argv`` with its output sent to the two files, waits
for it to exit (killing it after ``timeout`` seconds) and writes one JSON line
back: ``{"latency", "status", "rss_kb", "timed_out", "calibration"}``.  An
argument equal to ``"{spawn_time}"`` is replaced by ``time.time()`` taken just
before the start.  A request ``{}`` gets ``{"calibration"}`` alone.

``calibration`` is the time of a fixed pure-Python BFS loop run right after
the child exits.  The host's speed varies by up to 2x within seconds and
drifts over minutes; ``run.py`` uses these times to scale its timings to a
fixed reference speed.

This runs as its own small process because Linux charges a child started
with ``posix_spawn`` the peak RSS of the process it was started from: started
from the benchmark itself, which holds NumPy and the inputs, every op would
report at least the benchmark's own size.  Exits when stdin closes.
"""

import json
import os
import select
import signal
import sys
import time
from collections import deque

# A cycle on 1500 vertices with a chord every 7th vertex, as adjacency lists.
_N = 1500
_ADJ = [[(v - 1) % _N, (v + 1) % _N] + ([(v + _N // 2) % _N] if v % 7 == 0 else [])
        for v in range(_N)]


def calibrate(sources: int = 40) -> float:
    """Seconds taken by BFS from 41 fixed sources of ``_ADJ`` (~12 ms)."""
    start = time.perf_counter()
    for s in range(0, _N, _N // sources):
        dist = [-1] * _N
        dist[s] = 0
        queue = deque([s])
        while queue:
            u = queue.popleft()
            for w in _ADJ[u]:
                if dist[w] < 0:
                    dist[w] = dist[u] + 1
                    queue.append(w)
    return time.perf_counter() - start


def spawn(req: dict) -> dict:
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [(os.POSIX_SPAWN_OPEN, 1, req["stdout"], flags, 0o644),
               (os.POSIX_SPAWN_OPEN, 2, req["stderr"], flags, 0o644)]
    argv = [repr(time.time()) if a == "{spawn_time}" else a for a in req["argv"]]
    start = time.perf_counter()
    pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
    pidfd = os.pidfd_open(pid)
    try:
        timed_out = not select.select([pidfd], [], [], req["timeout"])[0]
        if timed_out:
            os.kill(pid, signal.SIGKILL)
        _, status, usage = os.wait4(pid, 0)
    finally:
        os.close(pidfd)
    latency = time.perf_counter() - start
    return {"latency": latency, "status": os.waitstatus_to_exitcode(status),
            "rss_kb": usage.ru_maxrss, "timed_out": timed_out,
            "calibration": calibrate()}


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        # A request without "argv" asks for a calibration time alone.
        reply = spawn(req) if "argv" in req else {"calibration": calibrate()}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
