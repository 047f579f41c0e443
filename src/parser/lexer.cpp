#include "parser/lexer.h"

#include <string>

namespace specsyn {

const char* to_string(Tok t) {
  switch (t) {
    case Tok::End: return "<end>";
    case Tok::Ident: return "identifier";
    case Tok::Int: return "integer";
    case Tok::Semi: return "';'";
    case Tok::Colon: return "':'";
    case Tok::Comma: return "','";
    case Tok::LParen: return "'('";
    case Tok::RParen: return "')'";
    case Tok::LBrace: return "'{'";
    case Tok::RBrace: return "'}'";
    case Tok::Arrow: return "'->'";
    case Tok::Assign: return "':='";
    case Tok::Plus: return "'+'";
    case Tok::Minus: return "'-'";
    case Tok::Star: return "'*'";
    case Tok::Slash: return "'/'";
    case Tok::Percent: return "'%'";
    case Tok::Amp: return "'&'";
    case Tok::Pipe: return "'|'";
    case Tok::Caret: return "'^'";
    case Tok::Shl: return "'<<'";
    case Tok::Shr: return "'>>'";
    case Tok::Lt: return "'<'";
    case Tok::Le: return "'<='";
    case Tok::Gt: return "'>'";
    case Tok::Ge: return "'>='";
    case Tok::EqEq: return "'=='";
    case Tok::Ne: return "'!='";
    case Tok::AmpAmp: return "'&&'";
    case Tok::PipePipe: return "'||'";
    case Tok::Bang: return "'!'";
    case Tok::Tilde: return "'~'";
  }
  return "?";
}

namespace {

// Identifier characters of the C locale (std::isalpha/std::isalnum there):
// ASCII letters, digits and '_'; a digit cannot start one.
bool ident_start(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool ident_char(char c) { return ident_start(c) || (c >= '0' && c <= '9'); }
bool digit(char c) { return c >= '0' && c <= '9'; }
bool blank(char c) { return c == ' ' || c == '\t' || c == '\r'; }

}  // namespace

std::vector<Token> lex(std::string_view src, DiagnosticSink& diags) {
  std::vector<Token> out;
  out.reserve(src.size() / 6 + 1);  // printed specs run ~7 bytes per token
  uint32_t line = 1, col = 1;
  size_t i = 0;
  const size_t n = src.size();

  auto peek = [&](size_t k = 0) -> char {
    return i + k < n ? src[i + k] : '\0';
  };
  // Every multi-character run below (blanks, a comment, an identifier, a
  // number, an operator) lies within one line: one column update per run.
  auto skip_to = [&](size_t end) {
    col += static_cast<uint32_t>(end - i);
    i = end;
  };
  auto advance = [&]() { skip_to(i + 1); };
  auto push = [&](Tok kind, SourceLoc loc) {
    Token t;
    t.kind = kind;
    t.loc = loc;
    out.push_back(t);
  };

  while (i < n) {
    const char c = src[i];
    const SourceLoc loc{line, col};
    if (c == '\n') {
      ++line;
      col = 1;
      ++i;
      continue;
    }
    if (blank(c)) {
      size_t j = i + 1;
      while (j < n && blank(src[j])) ++j;
      skip_to(j);
      continue;
    }
    if (c == '/' && peek(1) == '/') {
      const size_t nl = src.find('\n', i);
      skip_to(nl == std::string_view::npos ? n : nl);
      continue;
    }
    if (ident_start(c)) {
      size_t j = i + 1;
      while (j < n && ident_char(src[j])) ++j;
      Token t;
      t.kind = Tok::Ident;
      t.text = src.substr(i, j - i);
      t.loc = loc;
      out.push_back(t);
      skip_to(j);
      continue;
    }
    if (digit(c)) {
      Token t;
      t.kind = Tok::Int;
      t.loc = loc;
      uint64_t v = 0;
      bool overflow = false;
      size_t j = i;
      for (; j < n && digit(src[j]); ++j) {
        const auto d = static_cast<uint64_t>(src[j] - '0');
        if (v > (UINT64_MAX - d) / 10) overflow = true;
        v = v * 10 + d;
      }
      skip_to(j);
      if (overflow) diags.error("integer literal overflows 64 bits", loc);
      t.int_value = v;
      out.push_back(t);
      continue;
    }
    switch (c) {
      case ';': advance(); push(Tok::Semi, loc); continue;
      case ',': advance(); push(Tok::Comma, loc); continue;
      case '(': advance(); push(Tok::LParen, loc); continue;
      case ')': advance(); push(Tok::RParen, loc); continue;
      case '{': advance(); push(Tok::LBrace, loc); continue;
      case '}': advance(); push(Tok::RBrace, loc); continue;
      case '+': advance(); push(Tok::Plus, loc); continue;
      case '*': advance(); push(Tok::Star, loc); continue;
      case '/': advance(); push(Tok::Slash, loc); continue;
      case '%': advance(); push(Tok::Percent, loc); continue;
      case '^': advance(); push(Tok::Caret, loc); continue;
      case '~': advance(); push(Tok::Tilde, loc); continue;
      case ':':
        advance();
        if (peek() == '=') {
          advance();
          push(Tok::Assign, loc);
        } else {
          push(Tok::Colon, loc);
        }
        continue;
      case '-':
        advance();
        if (peek() == '>') {
          advance();
          push(Tok::Arrow, loc);
        } else {
          push(Tok::Minus, loc);
        }
        continue;
      case '&':
        advance();
        if (peek() == '&') {
          advance();
          push(Tok::AmpAmp, loc);
        } else {
          push(Tok::Amp, loc);
        }
        continue;
      case '|':
        advance();
        if (peek() == '|') {
          advance();
          push(Tok::PipePipe, loc);
        } else {
          push(Tok::Pipe, loc);
        }
        continue;
      case '<':
        advance();
        if (peek() == '=') {
          advance();
          push(Tok::Le, loc);
        } else if (peek() == '<') {
          advance();
          push(Tok::Shl, loc);
        } else {
          push(Tok::Lt, loc);
        }
        continue;
      case '>':
        advance();
        if (peek() == '=') {
          advance();
          push(Tok::Ge, loc);
        } else if (peek() == '>') {
          advance();
          push(Tok::Shr, loc);
        } else {
          push(Tok::Gt, loc);
        }
        continue;
      case '=':
        advance();
        if (peek() == '=') {
          advance();
          push(Tok::EqEq, loc);
        } else {
          diags.error("unexpected '='; use ':=' or '=='", loc);
        }
        continue;
      case '!':
        advance();
        if (peek() == '=') {
          advance();
          push(Tok::Ne, loc);
        } else {
          push(Tok::Bang, loc);
        }
        continue;
      default:
        diags.error(std::string("unexpected character '") + c + "'", loc);
        advance();
        continue;
    }
  }
  push(Tok::End, {line, col});
  return out;
}

}  // namespace specsyn
