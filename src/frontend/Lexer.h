//===- frontend/Lexer.h - MiniC lexer --------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Hand-written lexer for MiniC.  Supports `//` and `/* */` comments,
/// decimal integer and floating literals, and the operator set of the C
/// subset described in DESIGN.md.  Tokens are plain data; identifiers
/// carry their Symbol, so no token owns a string.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FRONTEND_LEXER_H
#define SLDB_FRONTEND_LEXER_H

#include "frontend/Token.h"
#include "support/Diagnostics.h"

#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sldb {

/// Tokenizes a MiniC source buffer, interning every identifier into a
/// SymbolTable.
class Lexer {
public:
  Lexer(std::string_view Source, DiagnosticEngine &Diags, SymbolTable &Syms)
      : Cur(Source.data()), End(Source.data() + Source.size()),
        LineStart(Cur), Diags(Diags), Syms(Syms) {}
  /// Interns into a table of the lexer's own, for callers that need
  /// token kinds and spellings only (the symbols die with the lexer).
  Lexer(std::string_view Source, DiagnosticEngine &Diags)
      : Lexer(Source, Diags, std::make_unique<SymbolTable>()) {}

  /// Lexes the next token.  After an unexpected character the lexer
  /// stops: every later call returns Eof.
  Token next();

  /// Lexes the whole buffer (ending with an Eof token).
  std::vector<Token> lexAll();

  /// Lexes the rest of the buffer, keeping only its diagnostics.
  void drain();

  /// True once this lexer has reported an error.
  bool hadError() const { return HadError; }

private:
  Lexer(std::string_view Source, DiagnosticEngine &Diags,
        std::unique_ptr<SymbolTable> Own)
      : Lexer(Source, Diags, *Own) {
    OwnedSyms = std::move(Own);
  }

  char peek(unsigned Ahead = 0) const {
    return Ahead < static_cast<std::size_t>(End - Cur) ? Cur[Ahead] : '\0';
  }
  /// Consumes \p Expected (never a newline) if it comes next.
  bool match(char Expected) {
    if (Cur == End || *Cur != Expected)
      return false;
    ++Cur;
    return true;
  }
  void skipWhitespaceAndComments();
  /// Every character but a newline is one column wide.
  SourceLoc loc() const {
    return SourceLoc(Line, static_cast<std::uint32_t>(Cur - LineStart) + 1);
  }
  void error(SourceLoc Loc, std::string Message) {
    HadError = true;
    Diags.error(Loc, std::move(Message));
  }

  Token lexNumber(SourceLoc Start);
  Token lexIdentifier(SourceLoc Start);
  static Token makeToken(TokKind Kind, SourceLoc Loc) {
    Token T;
    T.Kind = Kind;
    T.Loc = Loc;
    return T;
  }

  const char *Cur;       ///< Next character to lex.
  const char *End;       ///< One past the buffer.
  const char *LineStart; ///< First character of the current line.
  std::uint32_t Line = 1;
  DiagnosticEngine &Diags;
  SymbolTable &Syms;
  std::unique_ptr<SymbolTable> OwnedSyms;
  bool HadError = false;
  bool Stopped = false; ///< Hit an unexpected character.
};

} // namespace sldb

#endif // SLDB_FRONTEND_LEXER_H
