// Pretty-printer: emits a Specification as canonical SpecLang text.
//
// The printed form is (a) re-parseable by the SpecLang parser — the
// round-trip `parse(print(s))` reproduces `s` structurally, which the test
// suite checks — and (b) the size metric of the paper's Figure 10: "number
// of lines in the refined specification" is `count_lines(spec)`, which a test
// pins equal to the non-empty line count of the text `print(spec)`.
//
// One printer walks the specification into an output sink. The text sink
// appends everything, expressions included, to one string and backs the
// print() overloads; the line sink only tracks whether the current line has
// content and backs count_lines(spec), which builds no text.
#pragma once

#include <string>

#include "spec/specification.h"

namespace specsyn {

/// Prints the full specification (two spaces per indentation level).
[[nodiscard]] std::string print(const Specification& spec);

/// Prints a single behavior subtree (used in error messages and examples).
[[nodiscard]] std::string print(const Behavior& b);

/// Prints one expression (minimal parentheses).
[[nodiscard]] std::string print(const Expr& e);

/// Prints one statement subtree.
[[nodiscard]] std::string print(const Stmt& s);

/// Prints one procedure.
[[nodiscard]] std::string print(const Procedure& p);

/// Number of non-empty lines `print(spec)` would produce — the Figure 10
/// size metric — without building the text.
[[nodiscard]] size_t count_lines(const Specification& spec);

/// Number of non-empty lines in `text`.
[[nodiscard]] size_t count_lines(const std::string& text);

}  // namespace specsyn
