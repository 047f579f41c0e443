#!/usr/bin/env python3
"""Validate a `specsyn check --json` document (schema specsyn-check-v1).

Usage:
  check_diag_json.py FILE             validate; exit 0/1, errors on stderr
  check_diag_json.py --witnesses FILE validate, then print one witness per
                                      line (findings that carry one), for
                                      piping into --replay-witness

The document shape:

  {
    "schema": "specsyn-check-v1",
    "spec": "<name>",
    "errors": N, "warnings": N,
    "findings": [
      {"code": "SA0xx", "severity": "error"|"warning", "behavior": "...",
       "message": "...", "witness": "picks:..."|""},
      ...
    ],
    "schedules": {"explored": N, "pruned": N, "divergent": N,
                  "complete": true|false}        // only with exploration
  }

`witness` is always present; it is non-empty only when schedule exploration
(`specsyn check --explore-schedules`) found a divergent schedule that proves
the finding dynamically. SA021 findings always carry a witness.
"""
import json
import re
import sys

SCHEMA = "specsyn-check-v1"
CODE_RE = re.compile(r"^SA\d{3}$")
WITNESS_RE = re.compile(r"^picks:(\d+(,\d+)*)?$")
SEVERITIES = ("error", "warning")


def fail(msg):
    print(f"check_diag_json: {msg}", file=sys.stderr)
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
    expect(isinstance(doc.get("spec"), str), "'spec' missing")
    expect(is_uint(doc.get("errors")), "'errors' missing or not a uint")
    expect(is_uint(doc.get("warnings")), "'warnings' missing or not a uint")

    findings = doc.get("findings")
    expect(isinstance(findings, list), "'findings' missing")
    tally = {"error": 0, "warning": 0}
    for i, f in enumerate(findings):
        where = f"finding[{i}]"
        expect(isinstance(f, dict), f"{where}: not an object")
        code = f.get("code")
        expect(isinstance(code, str) and CODE_RE.match(code),
               f"{where}: bad code {code!r}")
        sev = f.get("severity")
        expect(sev in SEVERITIES, f"{where}: bad severity {sev!r}")
        tally[sev] += 1
        expect(isinstance(f.get("behavior"), str), f"{where}: bad 'behavior'")
        expect(isinstance(f.get("message"), str) and f["message"],
               f"{where}: bad 'message'")
        witness = f.get("witness")
        expect(isinstance(witness, str), f"{where}: 'witness' missing")
        if witness:
            expect(WITNESS_RE.match(witness),
                   f"{where}: malformed witness {witness!r}")
        if code == "SA021":
            expect(witness, f"{where}: SA021 must carry a witness")
    expect(tally["error"] == doc["errors"],
           f"'errors' says {doc['errors']}, findings hold {tally['error']}")
    expect(tally["warning"] == doc["warnings"],
           f"'warnings' says {doc['warnings']}, "
           f"findings hold {tally['warning']}")

    sched = doc.get("schedules")
    if any(f.get("code") == "SA021" for f in findings):
        expect(isinstance(sched, dict),
               "SA021 present but 'schedules' section missing")
    if sched is not None:
        expect(isinstance(sched, dict), "'schedules' is not an object")
        for field in ("explored", "pruned", "divergent"):
            expect(is_uint(sched.get(field)), f"schedules: bad '{field}'")
        expect(isinstance(sched.get("complete"), bool),
               "schedules: bad 'complete'")
        expect(sched["explored"] >= 1,
               "schedules: ran but explored no schedule")
        expect(sched["divergent"] < sched["explored"]
               or sched["divergent"] == 0,
               "schedules: the baseline cannot diverge from itself")
        if any(f.get("code") == "SA021" for f in findings):
            expect(sched["divergent"] > 0,
                   "SA021 present but schedules report no divergence")


def main(argv):
    witnesses = False
    args = argv[1:]
    if args and args[0] == "--witnesses":
        witnesses = True
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
    if witnesses:
        seen = set()
        for f in doc["findings"]:
            w = f["witness"]
            if w and w not in seen:
                seen.add(w)
                print(w)
    else:
        sched = doc.get("schedules")
        extra = (f", {sched['explored']} schedules explored"
                 if sched else "")
        print(f"{args[0]}: ok ({doc['errors']} errors, "
              f"{doc['warnings']} warnings{extra})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
