"""JSON emission for reports.

The stdlib encoder spells every float with ``repr``, the shortest text
that reads back as the same double, so ``json.loads`` returns each float
with its bits, the sign of -0.0 and the type of 1.0 included.  NaN and
infinities raise ValueError: a report holds only finite numbers.
"""

from __future__ import annotations

import json


def dumps(obj) -> str:
    return json.dumps(obj, indent=2, allow_nan=False) + "\n"
