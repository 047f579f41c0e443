#!/usr/bin/env python3
"""Unexecuted lines per src/ file, from a gcov build after ctest has run.

    cmake -B build-cov -DCMAKE_BUILD_TYPE=Debug \\
          -DCMAKE_CXX_FLAGS="--coverage -O0"
    cmake --build build-cov -j && (cd build-cov && ctest -j4)
    python3 tools/coverage.py build-cov [--source DIR]

Runs gcov over every .gcda under <build>/src (the library's objects). A line
counts once however many template instantiations gcov lists for it (e.g.
interp_bytecode.cpp's <Obs> kernels): it is executed if any of them ran it.
The total is a worklist of code no test reaches, not a target.
"""

import argparse
import json
import os
import subprocess
from collections import defaultdict


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("build", help="coverage build directory, after ctest")
    ap.add_argument("--source", help="source tree the build was configured "
                    "from (default: this checkout)",
                    default=os.path.dirname(os.path.dirname(
                        os.path.abspath(__file__))))
    args = ap.parse_args()
    src = os.path.join(os.path.realpath(args.source), "src") + os.sep

    executed = defaultdict(bool)  # (file, line) -> run by any instantiation
    for d, _, files in os.walk(os.path.join(args.build, "src")):
        for gcda in (os.path.join(d, f) for f in files if f.endswith(".gcda")):
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", "-o", d, gcda],
                check=True, capture_output=True, text=True).stdout
            for doc in filter(str.strip, out.splitlines()):
                for record in json.loads(doc)["files"]:
                    path = os.path.realpath(os.path.join(d, record["file"]))
                    if not path.startswith(src):
                        continue
                    for line in record["lines"]:
                        key = (path[len(src):], line["line_number"])
                        executed[key] |= line["count"] > 0
    if not executed:
        raise SystemExit(f"no coverage data under {args.build}/src")

    per_file = defaultdict(lambda: [0, 0])  # file -> [unexecuted, executable]
    for (path, _), ran in executed.items():
        per_file[path][0] += not ran
        per_file[path][1] += 1
    print(f"{'unexec':>6} {'lines':>6} {'pct':>6}  file (src/)")
    for path, (miss, total) in sorted(per_file.items(),
                                      key=lambda kv: (-kv[1][0], kv[0])):
        if miss:
            print(f"{miss:6d} {total:6d} {100.0 * miss / total:5.1f}%  {path}")
    miss = sum(m for m, _ in per_file.values())
    print(f"total: {miss} of {len(executed)} executable src/ lines "
          f"unexecuted ({100.0 * miss / len(executed):.1f}%)")


if __name__ == "__main__":
    main()
