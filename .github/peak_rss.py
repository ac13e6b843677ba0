"""Run a command within a peak-RSS bound.

Usage: python3 .github/peak_rss.py RC MB OUT CMD...

Runs CMD with its stdout written to OUT, prints its exit code and peak RSS,
and exits 0 only when the exit code is RC and the peak is under MB megabytes.
"""

import resource
import subprocess
import sys

rc, mb, out, *cmd = sys.argv[1:]
with open(out, "w") as fh:
    code = subprocess.run(cmd, stdout=fh).returncode
peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
print(f"exit code {code}, peak RSS {peak:.1f} MB")
sys.exit(0 if code == int(rc) and peak < float(mb) else 1)
