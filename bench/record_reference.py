"""Record the certify_mixed reference table, ``reference_certify.json``.

Runs one certification set and stores lhs, rhs and the certified
constant of every fixed-family test function (the seeded random draws
change with the seed and are checked by their verdicts only).  Run it
only at a commit whose numbers are trusted:

    python3 bench/record_reference.py
"""

import json
import sys

from bootstrap import ROOT, bootstrap, checkout_commit


def main() -> int:
    bootstrap()
    from workloads import REFERENCE_PATH, REFERENCE_RTOL, WORKLOADS, reference_rows

    wl = WORKLOADS["certify_mixed"]
    state = wl.setup(wl.make_inputs(0, False, ROOT))
    rows = reference_rows(state, wl.operation(state))
    REFERENCE_PATH.write_text(json.dumps(
        {"commit": checkout_commit(), "rtol": REFERENCE_RTOL, "rows": rows},
        indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {len(rows)} rows to {REFERENCE_PATH}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
