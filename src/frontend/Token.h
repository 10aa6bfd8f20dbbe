//===- frontend/Token.h - MiniC tokens -------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Tokens of the MiniC language, the C subset the reproduction uses as
/// its source language (the paper's substrate, cmcc, compiled ANSI C),
/// and the table that interns identifiers as dense Symbols.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_FRONTEND_TOKEN_H
#define SLDB_FRONTEND_TOKEN_H

#include "support/Arena.h"
#include "support/SourceLoc.h"

#include <cstdint>
#include <string_view>
#include <type_traits>
#include <vector>

namespace sldb {

/// Lexical token kinds.
enum class TokKind : std::uint8_t {
  Eof,
  Identifier,
  IntLiteral,
  DoubleLiteral,

  // Keywords.
  KwInt,
  KwDouble,
  KwVoid,
  KwIf,
  KwElse,
  KwWhile,
  KwDo,
  KwFor,
  KwReturn,
  KwBreak,
  KwContinue,

  // Punctuation.
  LParen,
  RParen,
  LBrace,
  RBrace,
  LBracket,
  RBracket,
  Semicolon,
  Comma,
  Question,
  Colon,

  // Operators.
  Assign,        // =
  PlusAssign,    // +=
  MinusAssign,   // -=
  StarAssign,    // *=
  SlashAssign,   // /=
  PercentAssign, // %=
  PlusPlus,      // ++
  MinusMinus,    // --
  Plus,
  Minus,
  Star,
  Slash,
  Percent,
  Amp,      // &
  Pipe,     // |
  Caret,    // ^
  Tilde,    // ~
  Bang,     // !
  AmpAmp,   // &&
  PipePipe, // ||
  Shl,      // <<
  Shr,      // >>
  EqEq,
  BangEq,
  Less,
  LessEq,
  Greater,
  GreaterEq,

  Unknown
};

/// Returns a human-readable spelling for diagnostics.
const char *tokKindName(TokKind Kind);

/// Dense identity of an interned identifier spelling (see SymbolTable).
using Symbol = std::uint32_t;
inline constexpr Symbol InvalidSymbol = ~Symbol(0);

/// One lexed token: plain data, copied by value and never freed.
struct Token {
  TokKind Kind = TokKind::Eof;
  Symbol Sym = InvalidSymbol; ///< Interned spelling (identifiers only).
  SourceLoc Loc;
  std::string_view Text; ///< Spelling in the source (identifiers only).
  union {
    std::int64_t IntVal = 0; ///< IntLiteral value.
    double DoubleVal;        ///< DoubleLiteral value.
  };

  bool is(TokKind K) const { return Kind == K; }
};

static_assert(std::is_trivially_copyable_v<Token> &&
                  std::is_trivially_destructible_v<Token>,
              "tokens are plain data");

/// Interns identifier spellings: each distinct spelling gets one dense
/// Symbol, in first-seen order, and its bytes are copied once into the
/// table's own arena.  The keywords are interned first, in TokKind order,
/// then the builtins, so the lexer tells a keyword from an identifier
/// with the one probe that interns it.
class SymbolTable {
public:
  static constexpr Symbol NumKeywords =
      Symbol(TokKind::KwContinue) - Symbol(TokKind::KwInt) + 1;
  static constexpr Symbol Print = NumKeywords;      ///< `print`
  static constexpr Symbol PrintDouble = Print + 1;  ///< `printd`

  SymbolTable();
  SymbolTable(const SymbolTable &) = delete;
  SymbolTable &operator=(const SymbolTable &) = delete;

  /// Returns the symbol of \p Spelling, interning it if it is new.
  Symbol intern(std::string_view Spelling);
  /// As above, with the spelling's 32-bit FNV-1a hash already computed.
  Symbol intern(std::string_view Spelling, std::uint32_t Hash);

  std::string_view spelling(Symbol S) const {
    return {Entries[S].Data, Entries[S].Size};
  }

  /// Number of interned symbols; every Symbol is below it.
  std::size_t size() const { return Entries.size(); }

private:
  struct Entry {
    const char *Data;
    std::uint32_t Size;
    std::uint32_t Hash;
  };
  void rehash(std::size_t NewCap);

  std::vector<Entry> Entries;    ///< Indexed by Symbol.
  std::vector<Symbol> Slots;     ///< Open addressing; InvalidSymbol = empty.
  Arena Spellings;
};

} // namespace sldb

#endif // SLDB_FRONTEND_TOKEN_H
