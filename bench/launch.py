"""Run one command and report its wall time and peak RSS as a JSON line.

usage: python3 launch.py STDOUT_FILE -- COMMAND [ARG ...]

On Linux a child's ru_maxrss starts from the high-water mark of the memory
it was forked from, so a command spawned straight from a process that holds
a large capture reports that process's peak as its own. This launcher is a
fresh interpreter that imports almost nothing, so the command it spawns
starts from a small floor and ru_maxrss is the command's own peak.
"""

import json
import os
import sys
import time


def main(argv: list[str]) -> int:
    if len(argv) < 3 or argv[1] != "--":
        print(__doc__.splitlines()[2].strip(), file=sys.stderr)
        return 2
    stdout_path, command = argv[0], argv[2:]
    actions = [(os.POSIX_SPAWN_OPEN, 1, stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)]
    started = time.perf_counter()
    pid = os.posix_spawnp(command[0], command, os.environ, file_actions=actions)
    _pid, status, usage = os.wait4(pid, 0)
    wall_s = time.perf_counter() - started
    print(json.dumps({
        "exit": os.waitstatus_to_exitcode(status),
        "wall_s": wall_s,
        "maxrss_kib": usage.ru_maxrss,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
