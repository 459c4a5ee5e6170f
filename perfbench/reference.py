"""Regenerate reference.json, the expected output digest of each workload.

    python3 perfbench/reference.py

Run it only for a change that alters outputs on purpose, and say so in that
change. A corpus digest comes from one full ``run_experiment`` call over the
whole corpus, so that the benchmark's per-instance calls must reassemble to
exactly its CSV. The pabulib-scale digest comes from the workload's own
pipeline on the generated elections.
"""

import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from pbvoting import bench  # noqa: E402
import workloads  # noqa: E402


def main():
    out = {}
    for name, w in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as tmp:
            items = w.prepare(Path(tmp))
            if isinstance(w, workloads.Corpus):
                rows = bench.run_experiment(w.spec(0, w.n_instances))
                result = rows, bench.aggregate(rows)
            else:
                result = w.finish([w.run_item(item) for item in items])
            out[name] = {"sha256": w.digest(result)}
            problems = w.check(result, out[name], items)
        if problems:
            sys.exit(f"{name}: {problems}")
        print(name, out[name], flush=True)
    (HERE / "reference.json").write_text(json.dumps(out, indent=2) + "\n")


if __name__ == "__main__":
    main()
