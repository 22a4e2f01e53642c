"""Runs the CLI commands of a benchmark run; reports wall time and peak RSS.

run.py starts this process before it builds its inputs, while its own
memory is small.  On Linux a child's max-RSS starts at the resident size
of the process that spawned it, so commands spawned from the grown
benchmark process would report the benchmark's memory, not their own.

Protocol: one JSON line {"argv": [...], "timeout": s} on stdin per
command; the reply line is {"spawned", "elapsed", "code", "stdout",
"stderr", "maxrss_kb"}, with stdout and stderr as latin-1 text and code
null after a timeout.
"""

import json
import os
import selectors
import subprocess
import sys
import time


def run(argv: list[str], timeout: float) -> dict:
    spawned = time.monotonic()
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as selector:
        for stream in chunks:
            selector.register(stream, selectors.EVENT_READ)
        timed_out = False
        while selector.get_map():
            remaining = start + timeout - time.perf_counter()
            if remaining <= 0 and not timed_out:
                proc.kill()
                timed_out = True
            for key, _ in selector.select(max(remaining, 0.1)):
                data = os.read(key.fd, 1 << 16)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    selector.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"spawned": spawned, "elapsed": elapsed,
            "code": None if timed_out else proc.returncode,
            "stdout": b"".join(chunks[proc.stdout]).decode("latin-1"),
            "stderr": b"".join(chunks[proc.stderr]).decode("latin-1"),
            "maxrss_kb": usage.ru_maxrss}


def main() -> int:
    for line in sys.stdin:
        request = json.loads(line)
        sys.stdout.write(json.dumps(run(request["argv"], request["timeout"])) + "\n")
        sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
