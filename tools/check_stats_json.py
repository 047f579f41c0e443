#!/usr/bin/env python3
"""Validate a specsyn --stats-json document (schema specsyn-stats-v2).

Usage:
  check_stats_json.py FILE            validate; exit 0/1, errors on stderr
  check_stats_json.py --strip FILE    validate, then print the canonical
                                      stability-stable subset on stdout

The --strip output keeps only the sections the telemetry layer guarantees
byte-identical across --jobs values: stable counters and the *counts* of
stable spans (span durations are wall clock even when the count is
deterministic). Two runs of the same command are expected to produce
identical --strip output for any worker count:

  specsyn sweep spec --jobs 1 --stats-json a.json
  specsyn sweep spec --jobs 8 --stats-json b.json
  check_stats_json.py --strip a.json > a.stable
  check_stats_json.py --strip b.json > b.stable
  cmp a.stable b.stable
"""
import json
import sys

SCHEMA = "specsyn-stats-v2"
STABILITY_CLASSES = ("stable", "sched", "time")


def fail(msg):
    print(f"check_stats_json: {msg}", file=sys.stderr)
    sys.exit(1)


def expect(cond, msg):
    if not cond:
        fail(msg)


def is_uint(v):
    return isinstance(v, int) and not isinstance(v, bool) and v >= 0


def validate(doc):
    expect(isinstance(doc, dict), "top level is not an object")
    expect(doc.get("schema") == SCHEMA,
           f"schema is {doc.get('schema')!r}, expected {SCHEMA!r}")
    expect(isinstance(doc.get("command"), str), "'command' missing")

    # v1 documents carried a "histograms" section; v2 has none.
    expect("histograms" not in doc,
           "'histograms' is not part of the v2 schema")

    counters = doc.get("counters")
    expect(isinstance(counters, dict), "'counters' missing")
    expect(sorted(counters.keys()) == sorted(STABILITY_CLASSES),
           f"'counters' must have exactly the keys {STABILITY_CLASSES}")
    for cls in STABILITY_CLASSES:
        for name, v in counters[cls].items():
            expect(is_uint(v), f"counter {name}: value {v!r} is not a uint")

    spans = doc.get("spans")
    expect(isinstance(spans, dict), "'spans' missing")
    for name, s in spans.items():
        expect(isinstance(s, dict), f"span {name}: not an object")
        expect(s.get("stability") in STABILITY_CLASSES,
               f"span {name}: bad stability {s.get('stability')!r}")
        for field in ("count", "total_ns", "min_ns", "max_ns"):
            expect(is_uint(s.get(field)), f"span {name}: bad '{field}'")
        expect(s["count"] == 0 or s["min_ns"] <= s["max_ns"],
               f"span {name}: min_ns > max_ns")


def strip(doc):
    return {
        "schema": doc["schema"],
        "command": doc["command"],
        "counters": doc["counters"]["stable"],
        "span_counts": {
            name: s["count"]
            for name, s in doc["spans"].items()
            if s["stability"] == "stable"
        },
    }


def main(argv):
    do_strip = False
    args = argv[1:]
    if args and args[0] == "--strip":
        do_strip = True
        args = args[1:]
    if len(args) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    try:
        with open(args[0], encoding="utf-8") as f:
            doc = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"{args[0]}: {e}")
    validate(doc)
    if do_strip:
        json.dump(strip(doc), sys.stdout, indent=1, sort_keys=True)
        sys.stdout.write("\n")
    else:
        n_counters = sum(len(doc["counters"][c]) for c in STABILITY_CLASSES)
        print(f"{args[0]}: ok ({n_counters} counters, "
              f"{len(doc['spans'])} spans)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
