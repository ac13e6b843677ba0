"""Check one field of a JSON document.

Usage: python3 .github/json_field.py KEY-PATH VALUE < FILE

KEY-PATH is dot-separated, a number indexing a list (``reports.0.verdict``).
VALUE is read as JSON when it parses (``true``, ``3``), and as a string
otherwise.  Prints the value found, and exits 0 only when it equals VALUE.
"""

import json
import sys

path, text = sys.argv[1:]
try:
    want = json.loads(text)
except ValueError:
    want = text
found = json.load(sys.stdin)
for key in path.split("."):
    found = found[int(key) if isinstance(found, list) else key]
print(f"{path}: {json.dumps(found)}")
sys.exit(0 if found == want else 1)
