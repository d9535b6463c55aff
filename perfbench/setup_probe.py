"""Set-up probe: import oscidiff in a fresh interpreter, parse a config
(which builds the field), then print "ready".

Usage: python3 perfbench/setup_probe.py <src dir> <config.json>
"""

import json
import sys

sys.path.insert(0, sys.argv[1])

from oscidiff import cli  # noqa: E402  (imports every oscidiff module)

with open(sys.argv[2]) as fh:
    cli.parse_config(json.load(fh))
print("ready", flush=True)
