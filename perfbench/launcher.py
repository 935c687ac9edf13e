"""Spawns each measured child from a process that stays small.

A child's ``ru_maxrss`` starts at the high-water RSS of the process that
spawned it: Linux carries the old address space's peak across exec.
Spawned straight from the benchmark, which holds every output it
checks, even a tiny op would report the benchmark's own peak.  This
launcher imports almost nothing, so the peak each child reports is its
own.

Protocol, over the SOCK_SEQPACKET socket whose descriptor is argv[1]:
a request is a JSON object ``{"argv": [...]}`` carrying the descriptors
that become the child's 1, 2 and (when given) 3.  The launcher answers
``{"pid": n}`` once the child runs and, when it has ended,
``{"rc": exit code, "cpu_s": user + system seconds, "rss_kb": ru_maxrss}``.
It exits when the socket closes.  Run it with ``python -I -S``.
"""

import fcntl
import json
import os
import socket
import sys


def serve(sock: socket.socket) -> None:
    devnull = fcntl.fcntl(os.open(os.devnull, os.O_RDONLY), fcntl.F_DUPFD_CLOEXEC, 10)
    while True:
        msg, fds, _, _ = socket.recv_fds(sock, 1 << 16, 3)
        if not msg:
            return
        argv = json.loads(msg)["argv"]
        # keep the received descriptors clear of 0..3 so the dup2s below cannot collide
        high = [fcntl.fcntl(fd, fcntl.F_DUPFD_CLOEXEC, 10) for fd in fds]
        for fd in fds:
            os.close(fd)
        actions = [(os.POSIX_SPAWN_DUP2, devnull, 0)]
        actions += [(os.POSIX_SPAWN_DUP2, fd, i) for i, fd in enumerate(high, 1)]
        try:
            pid = os.posix_spawn(argv[0], argv, os.environ, file_actions=actions)
        except OSError as exc:
            sock.send(json.dumps({"error": str(exc)}).encode())
            continue
        finally:
            for fd in high:
                os.close(fd)
        sock.send(json.dumps({"pid": pid}).encode())
        _, status, ru = os.wait4(pid, 0)
        sock.send(json.dumps({
            "rc": os.waitstatus_to_exitcode(status),
            "cpu_s": ru.ru_utime + ru.ru_stime,
            "rss_kb": ru.ru_maxrss,
        }).encode())


if __name__ == "__main__":
    serve(socket.socket(fileno=int(sys.argv[1])))
