"""Runs the benchmark's child processes from a small helper process.

Linux charges a child's peak RSS (``ru_maxrss``) with the peak RSS of the
process it was forked from, because the old memory map's high-water mark is
kept when the child calls exec.  Children started by the benchmark process
itself, which holds numpy, formpipe and whole models, would all report at
least that process's peak.  The helper is started before the benchmark
imports anything large and stays small, so the peak RSS that ``wait4``
reports for a child is the child's own.

Uses only the standard library, so importing it loads nothing large.
"""

from __future__ import annotations

import json
import os
import select
import signal
import subprocess
import sys
import time


def run_command(argv, env, cwd, stdout, stderr, timeout):
    """Run one child to completion and return its wall time, CPU time, exit
    code and peak RSS.  A child still running after ``timeout`` seconds is
    killed, and its exit code records the kill."""
    with open(stdout, "wb") as out, open(stderr, "wb") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out, stderr=err,
                                env=env, cwd=cwd)
    fd = os.pidfd_open(proc.pid)
    try:
        if not select.select([fd], [], [], timeout)[0]:
            proc.kill()
        # wait4 rather than RUSAGE_CHILDREN, which keeps the maximum over
        # every earlier child
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        os.close(fd)
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
        "rss_mb": usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
    }


class Spawner:
    """The helper process, taking one command at a time over a pipe.  It
    leads a process group of its own, which the children it starts join."""

    def __init__(self):
        self._proc = subprocess.Popen([sys.executable, os.path.abspath(__file__)],
                                      stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
                                      start_new_session=True)

    def run(self, argv, env, cwd, stdout, stderr, timeout):
        request = {"argv": [str(a) for a in argv], "env": env, "cwd": str(cwd),
                   "stdout": str(stdout), "stderr": str(stderr), "timeout": timeout}
        self._proc.stdin.write(json.dumps(request) + "\n")
        self._proc.stdin.flush()
        reply = self._proc.stdout.readline()
        if not reply:
            raise RuntimeError("the command helper exited")
        return json.loads(reply)

    def close(self, kill=False):
        """End the helper and wait for it: it exits once its input closes.
        With ``kill``, or if it does not exit in time, kill its process
        group, which takes any child it is running too."""
        try:
            self._proc.stdin.close()
        except BrokenPipeError:
            pass
        if not kill:
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                pass
        if kill or self._proc.poll() is None:
            try:
                os.killpg(self._proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self._proc.wait()
        self._proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close(kill=exc_type is not None)


def _serve():
    for line in sys.stdin:
        print(json.dumps(run_command(**json.loads(line))), flush=True)


if __name__ == "__main__":
    _serve()
