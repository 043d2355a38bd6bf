"""Peak RSS of measured processes, free of the benchmark's own size.

On Linux a process started by fork or vfork and exec takes the RSS of the
process that started it into its ru_maxrss: exec keeps the old address
space's high-water mark.  The benchmark's parent holds the op pools and,
once its checks have run, sympy, so a child it started directly could
never report less than the parent's size.  Two ways round that:

- a workload process reads its own VmHWM (`peak_rss_kb`), the high-water
  mark of the address space made at its exec;
- CLI processes are started by a `Spawner`: a small long-lived process
  (this file run as a script, `python -I -S`, standard library only) that
  starts each child itself and reports wait4()'s figures for it.

Spawner protocol: one JSON request per stdin line, {"argv", "stdout",
"stderr", "timeout"} with file paths for the child's output; one JSON
reply per stdout line, {"rc", "wall_s", "user_s", "maxrss_kb"}.
"""

import json
import os
import signal
import sys
import time


def peak_rss_kb() -> int:
    """This process's own peak resident set size, in KiB."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    import resource
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


class Spawner:
    """Client side: starts the spawner process and runs children through it,
    one at a time.  Use as a context manager, or call close()."""

    def __init__(self, env: dict, cwd: str, out_dir: str):
        import subprocess
        self.proc = subprocess.Popen(
            [sys.executable, "-I", "-S", os.path.abspath(__file__)],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            env=env, cwd=cwd)
        self.out = os.path.join(out_dir, "child.stdout")
        self.err = os.path.join(out_dir, "child.stderr")

    def run(self, argv: list[str], timeout: int):
        """Run argv to its end; returns exit code (negative signal number
        if killed, as after `timeout` seconds), stdout, stderr, the child's
        user CPU seconds and its peak RSS in KiB."""
        self.proc.stdin.write(json.dumps({
            "argv": argv, "stdout": self.out, "stderr": self.err,
            "timeout": timeout}) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended")
        reply = json.loads(line)
        with open(self.out, encoding="utf-8") as fh:
            out = fh.read()
        with open(self.err, encoding="utf-8", errors="replace") as fh:
            err = fh.read()
        return reply["rc"], out, err, reply["user_s"], reply["maxrss_kb"]

    def close(self) -> None:
        if self.proc.poll() is None:
            self.proc.stdin.close()
            self.proc.wait()
        self.proc.stdout.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def serve() -> None:
    child = 0

    def on_alarm(signum, frame):
        if child:
            os.kill(child, signal.SIGKILL)

    signal.signal(signal.SIGALRM, on_alarm)
    write = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    for line in sys.stdin:
        req = json.loads(line)
        actions = [(os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
                   (os.POSIX_SPAWN_OPEN, 1, req["stdout"], write, 0o644),
                   (os.POSIX_SPAWN_OPEN, 2, req["stderr"], write, 0o644)]
        t0 = time.perf_counter()
        child = os.posix_spawn(req["argv"][0], req["argv"], os.environ,
                               file_actions=actions)
        signal.alarm(req["timeout"])
        _, status, usage = os.wait4(child, 0)
        signal.alarm(0)
        child = 0
        sys.stdout.write(json.dumps({
            "rc": os.waitstatus_to_exitcode(status),
            "wall_s": time.perf_counter() - t0, "user_s": usage.ru_utime,
            "maxrss_kb": usage.ru_maxrss}) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    serve()
