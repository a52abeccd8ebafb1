"""Run one command, print its peak RSS and fail when it is above a bound.

    python tests/peak_rss.py BOUND_MB command [arg ...]

The peak is ``RUSAGE_CHILDREN``'s max RSS, the largest of the command's
process tree. It exits with the command's own code when the command fails.
"""

import resource
import subprocess
import sys


def main(argv: list) -> int:
    bound_mb, cmd = float(argv[0]), argv[1:]
    code = subprocess.run(cmd).returncode
    if code:
        return code
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024   # KiB on Linux
    print(f"peak RSS {peak_mb:.0f} MB")
    if peak_mb > bound_mb:
        print(f"{' '.join(cmd)} peaked at {peak_mb:.0f} MB, above {bound_mb:.0f} MB",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
