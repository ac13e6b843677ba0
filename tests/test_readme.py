"""The README's Library block runs as written, and prints what it says, and
its report example is what the checker reports."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import paretocheck
from paretocheck import DomainIndex, check_axiom, make_rule

README = Path(__file__).resolve().parents[1] / "README.md"

# a line whose comment is a quoted string: the expression's value
_CLAIM = re.compile(r"^(?P<expr>\S.*?)\s+# (?P<value>'[^']*')$")


def _library_block() -> list[str]:
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Library\n", 1)[1]
    return section.split("```python\n", 1)[1].split("\n```", 1)[0].splitlines()


def test_readme_library_block_runs():
    lines, claims = [], 0
    for line in _library_block():
        claim = _CLAIM.match(line)
        if claim:
            expr, value = claim["expr"], claim["value"]
            line = f"assert ({expr}) == {value}, ({expr!r}, {expr})"
            claims += 1
        lines.append(line)
    assert claims >= 5  # the block still writes its values as quoted comments
    path = os.pathsep.join(filter(None, [str(Path(paretocheck.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", "\n".join(lines)], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})
    assert done.returncode == 0, done.stderr


def test_readme_report_example_is_the_checkers_report():
    text = README.read_text(encoding="utf-8")
    section = text.split("\n### Report formats\n", 1)[1]
    shown = json.loads(section.split("```json\n", 1)[1].split("\n```", 1)[0])
    report = check_axiom("balancedness", make_rule("example:10"), DomainIndex(3, 3, "abc"))
    assert json.dumps(shown) == json.dumps(report.to_json())  # keys in order too
