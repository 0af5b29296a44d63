#!/usr/bin/env python3
"""Record the fixed UA reference instances in perfbench/reference.json.

Run from the repository root, only at a commit whose `rank --fn ua` output
is trusted:

    python3 perfbench/record_reference.py <commit id>

The benchmark then checks every run's UA output on these instances against
the recorded per-individual expected ranks.
"""

import json
import sys
import tempfile
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from uarank import cli  # noqa: E402

INSTANCES = [(30, 3), (30, 5), (60, 3)]


def main(commit: str) -> None:
    rng = np.random.default_rng(20240214)
    instances = []
    with tempfile.TemporaryDirectory() as tmp:
        for n, L in INSTANCES:
            rows = workloads.prediction_rows(rng, n, L)
            csv = workloads.write_csv(Path(tmp) / "in.csv", rows)
            out = Path(tmp) / "out.json"
            if cli.main(["rank", "--fn", "ua", "--in", str(csv), "--format", "structured", "--out", str(out)]):
                raise SystemExit(f"rank --fn ua failed on n={n}, L={L}")
            ranks = checks.ranks_of(checks.ranking(out))
            instances.append({"name": f"n{n}_L{L}", "rows": rows.tolist(), "expectedRanks": ranks.tolist()})
    doc = {"recordedAt": commit, "instances": instances}
    (HERE / "reference.json").write_text(json.dumps(doc, indent=1) + "\n")


if __name__ == "__main__":
    main(sys.argv[1])
