"""One cold set-up, as a command-line user pays it on every call: import
ordlen from the checkout's ``src`` and parse the workload's inputs from
the text on standard input.  Prints the number of inputs parsed.

    python3 olbench/setup_child.py profiles < inputs.txt
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import ordlen  # noqa: E402,F401
import inputs  # noqa: E402

parsed = inputs.parse(sys.argv[1], sys.stdin.read())
print(len(parsed[0]) if sys.argv[1] == "checks" else len(parsed))
