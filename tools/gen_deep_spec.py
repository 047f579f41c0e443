#!/usr/bin/env python3
"""Print a syntactically valid spec nested DEPTH levels deep.

Usage:
  gen_deep_spec.py parens DEPTH   x := ((...(1)...));
  gen_deep_spec.py seq DEPTH      DEPTH single-child seq behaviors around a leaf
  gen_deep_spec.py chain DEPTH    x := 1+1+...+1; (a left-deep tree DEPTH high)
  gen_deep_spec.py rchain DEPTH   x := 1+(1+(...+1)); (right-nested, so its
                                  postfix evaluation needs DEPTH values live)

The hostile-input ctests feed these to the CLI and require the parser's
nesting-depth diagnostic instead of a crash; an rchain the parser accepts
exercises the bytecode tier's deepest register file.
"""
import sys


def main(argv):
    if len(argv) != 3 or argv[1] not in ("parens", "seq", "chain", "rchain"):
        print(__doc__, file=sys.stderr)
        return 2
    kind, depth = argv[1], int(argv[2])
    out = sys.stdout
    out.write("spec Deep;\nobservable var x: int32;\n")
    if kind == "parens":
        out.write("behavior Top: leaf {\n  x := " + "(" * depth + "1" +
                  ")" * depth + ";\n}\n")
    elif kind == "chain":
        out.write("behavior Top: leaf {\n  x := 1" + "+1" * depth + ";\n}\n")
    elif kind == "rchain":
        inner = "1" if depth < 2 else "1+1"
        nest = max(depth - 2, 0)
        out.write("behavior Top: leaf {\n  x := " + "1+(" * nest + inner +
                  ")" * nest + ";\n}\n")
    else:
        for i in range(depth):
            out.write(f"behavior S{i}: seq {{\n")
        out.write("behavior Leaf: leaf {\n  x := 1;\n}\n")
        out.write("}\n" * depth)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
