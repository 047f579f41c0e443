// Lexer for SpecLang text.
//
// SpecLang is the textual form of the specification IR (see printer/). The
// token set is small; `//` comments run to end of line. `<=` is a single
// token — the parser disambiguates signal assignment from less-or-equal by
// position (statement head vs. expression).
#pragma once

#include <cstdint>
#include <string_view>
#include <vector>

#include "support/diagnostics.h"

namespace specsyn {

enum class Tok : uint8_t {
  End, Ident, Int,
  // punctuation
  Semi, Colon, Comma, LParen, RParen, LBrace, RBrace,
  Arrow,      // ->
  Assign,     // :=
  // operators
  Plus, Minus, Star, Slash, Percent,
  Amp, Pipe, Caret, Shl, Shr,
  Lt, Le, Gt, Ge, EqEq, Ne,
  AmpAmp, PipePipe, Bang, Tilde,
};

[[nodiscard]] const char* to_string(Tok t);

struct Token {
  Tok kind = Tok::End;
  std::string_view text;  // Ident spelling, a view into the lexed source
  uint64_t int_value = 0;
  SourceLoc loc;
};

/// Tokenizes `source`. Lexical errors are reported to `diags`; the returned
/// stream is still usable (offending characters are skipped) but callers
/// should treat has_errors() as fatal. The stream always ends with Tok::End.
/// Identifier tokens view `source`, which must outlive them. A location's
/// column counts bytes from 1, a tab included.
[[nodiscard]] std::vector<Token> lex(std::string_view source,
                                     DiagnosticSink& diags);

}  // namespace specsyn
