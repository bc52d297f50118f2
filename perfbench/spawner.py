"""Job runner process for run.py: one JSON request per input line, one reply per job.

On Linux a child's peak RSS (ru_maxrss) starts at the peak RSS of the process
that spawned it.  The benchmark process holds and parses large job outputs,
so jobs are started from this small process instead, and the peak RSS each
job reports is its own.  The reply carries wall time, user+sys CPU time of
the job and of the workers it reaped, peak RSS in KB and the exit code; the
job's standard output goes to the file named in the request.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "ab") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], stdout=out, stderr=err, env=request["env"],
                                cwd=request["cwd"], start_new_session=True)
        # on timeout, kill the job together with its pool workers
        watchdog = threading.Timer(request["timeout"], os.killpg, (proc.pid, signal.SIGKILL))
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
            "maxrss_kb": usage.ru_maxrss, "code": proc.returncode}


def main() -> int:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
