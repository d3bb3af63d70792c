"""Check that two sets of benchmark results show the same behaviour.

    python3 bench/same_results.py OLD NEW

OLD and NEW are result files written by bench/run.py, or directories of them
(files are then paired by name). For each pair with the same workload and
seed, the plan hashes of every op index present in both must be equal, and so
must the quality metrics, which are taken over a fixed number of ops. Exits 1
on any difference or when nothing could be paired.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

QUALITY = ("objective_over_bound_mean", "gap_exact_mean", "gap_bound_mean", "within_5pct_share")


def pairs(old: Path, new: Path):
    if old.is_file():
        yield old, new
        return
    for a in sorted(old.glob("*-trace*.json")):
        b = new / a.name
        if b.is_file():
            yield a, b


def differences(a: dict, b: dict) -> list[str]:
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        return [f"different inputs: {a['workload']} seed {a['seed']} vs {b['workload']} seed {b['seed']}"]
    found = []
    common = sorted(set(a["plan_sha256"]) & set(b["plan_sha256"]), key=int)
    for op in common:
        if a["plan_sha256"][op] != b["plan_sha256"][op]:
            found.append(f"op {op}: plan hash differs")
    if not common:
        found.append("no op index in common")
    for key in QUALITY:
        va, vb = (r["metrics"].get(key, {}).get("value") for r in (a, b))
        if va != vb:
            found.append(f"{key}: {va} vs {vb}")
    return found


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    n_pairs, n_bad = 0, 0
    for fa, fb in pairs(Path(argv[0]), Path(argv[1])):
        a, b = (json.loads(f.read_text()) for f in (fa, fb))
        n_pairs += 1
        found = differences(a, b)
        n_bad += bool(found)
        ops = len(set(a["plan_sha256"]) & set(b["plan_sha256"]))
        print(f"{fa.name}: {'DIFFERENT' if found else 'same'} ({ops} ops compared)")
        for line in found:
            print(f"  {line}")
    if not n_pairs:
        print("no result files to compare", file=sys.stderr)
        return 1
    return 1 if n_bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
