"""Starts the benchmark's timed children and reports their wall time and peak RSS.

``run.py`` starts this script once per run and sends it one JSON request
per line on standard input: ``{"args", "cwd", "stdout", "stderr",
"timeout"}``.  For each request it starts the child, waits for it with
``os.wait4`` and answers with one JSON line ``{"rc", "wall_s",
"maxrss_kb"}``.  It exits when its standard input closes.

The children are started from this small process rather than from
``run.py`` because Linux counts the memory of the process that starts a
child in the child's peak RSS: the exec replaces the address space that the
child borrowed from its parent, and that space's high-water mark is kept in
the child's ``ru_maxrss``.  ``run.py`` holds numpy and the reference
computations, so its children would report at least its own peak.  This
script imports only the standard library, which keeps that floor near
14 MB, under any command's own peak.
"""

import json
import os
import subprocess
import sys
import threading
import time


def serve() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["args"], cwd=req["cwd"], stdout=out, stderr=err)
            killer = threading.Timer(req["timeout"], proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
                proc.returncode = os.waitstatus_to_exitcode(status)
            finally:
                killer.cancel()
            wall = time.perf_counter() - start
        reply = {"rc": proc.returncode, "wall_s": wall, "maxrss_kb": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
