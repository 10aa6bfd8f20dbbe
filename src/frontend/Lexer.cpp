//===- frontend/Lexer.cpp -------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "frontend/Lexer.h"

#include "support/Casting.h"

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>

using namespace sldb;

const char *sldb::tokKindName(TokKind Kind) {
  switch (Kind) {
  case TokKind::Eof:
    return "end of file";
  case TokKind::Identifier:
    return "identifier";
  case TokKind::IntLiteral:
    return "integer literal";
  case TokKind::DoubleLiteral:
    return "double literal";
  case TokKind::KwInt:
    return "'int'";
  case TokKind::KwDouble:
    return "'double'";
  case TokKind::KwVoid:
    return "'void'";
  case TokKind::KwIf:
    return "'if'";
  case TokKind::KwElse:
    return "'else'";
  case TokKind::KwWhile:
    return "'while'";
  case TokKind::KwDo:
    return "'do'";
  case TokKind::KwFor:
    return "'for'";
  case TokKind::KwReturn:
    return "'return'";
  case TokKind::KwBreak:
    return "'break'";
  case TokKind::KwContinue:
    return "'continue'";
  case TokKind::LParen:
    return "'('";
  case TokKind::RParen:
    return "')'";
  case TokKind::LBrace:
    return "'{'";
  case TokKind::RBrace:
    return "'}'";
  case TokKind::LBracket:
    return "'['";
  case TokKind::RBracket:
    return "']'";
  case TokKind::Semicolon:
    return "';'";
  case TokKind::Comma:
    return "','";
  case TokKind::Question:
    return "'?'";
  case TokKind::Colon:
    return "':'";
  case TokKind::Assign:
    return "'='";
  case TokKind::PlusAssign:
    return "'+='";
  case TokKind::MinusAssign:
    return "'-='";
  case TokKind::StarAssign:
    return "'*='";
  case TokKind::SlashAssign:
    return "'/='";
  case TokKind::PercentAssign:
    return "'%='";
  case TokKind::PlusPlus:
    return "'++'";
  case TokKind::MinusMinus:
    return "'--'";
  case TokKind::Plus:
    return "'+'";
  case TokKind::Minus:
    return "'-'";
  case TokKind::Star:
    return "'*'";
  case TokKind::Slash:
    return "'/'";
  case TokKind::Percent:
    return "'%'";
  case TokKind::Amp:
    return "'&'";
  case TokKind::Pipe:
    return "'|'";
  case TokKind::Caret:
    return "'^'";
  case TokKind::Tilde:
    return "'~'";
  case TokKind::Bang:
    return "'!'";
  case TokKind::AmpAmp:
    return "'&&'";
  case TokKind::PipePipe:
    return "'||'";
  case TokKind::Shl:
    return "'<<'";
  case TokKind::Shr:
    return "'>>'";
  case TokKind::EqEq:
    return "'=='";
  case TokKind::BangEq:
    return "'!='";
  case TokKind::Less:
    return "'<'";
  case TokKind::LessEq:
    return "'<='";
  case TokKind::Greater:
    return "'>'";
  case TokKind::GreaterEq:
    return "'>='";
  case TokKind::Unknown:
    return "unknown token";
  }
  sldb_unreachable("bad token kind");
}

void Lexer::skipWhitespaceAndComments() {
  while (Cur != End) {
    const char C = *Cur;
    if (C == ' ' || C == '\t' || C == '\r') {
      ++Cur;
      continue;
    }
    if (C == '\n') {
      ++Line;
      LineStart = ++Cur;
      continue;
    }
    if (C != '/' || End - Cur < 2)
      return;
    if (Cur[1] == '/') {
      Cur += 2;
      while (Cur != End && *Cur != '\n')
        ++Cur;
      continue;
    }
    if (Cur[1] != '*')
      return;
    SourceLoc Start = loc();
    Cur += 2;
    for (;;) {
      if (Cur == End) {
        error(Start, "unterminated block comment");
        return;
      }
      if (Cur[0] == '*' && End - Cur >= 2 && Cur[1] == '/')
        break;
      if (*Cur++ == '\n') {
        ++Line;
        LineStart = Cur;
      }
    }
    Cur += 2;
  }
}

//===----------------------------------------------------------------------===//
// SymbolTable
//===----------------------------------------------------------------------===//

/// 32-bit FNV-1a, one byte at a time (the lexer folds it while it scans).
static constexpr std::uint32_t FnvBasis = 2166136261u;
static std::uint32_t fnvStep(std::uint32_t H, char C) {
  return (H ^ static_cast<unsigned char>(C)) * 16777619u;
}

static std::uint32_t hashSpelling(std::string_view S) {
  std::uint32_t H = FnvBasis;
  for (char C : S)
    H = fnvStep(H, C);
  return H;
}

SymbolTable::SymbolTable() : Spellings(1024) {
  rehash(256);
  static constexpr std::string_view Predefined[] = {
      "int",    "double", "void",     "if",    "else",  "while", "do",
      "for",    "return", "break",    "continue", "print", "printd"};
  for (std::string_view S : Predefined)
    intern(S);
}

void SymbolTable::rehash(std::size_t NewCap) {
  Slots.assign(NewCap, InvalidSymbol);
  const std::size_t Mask = NewCap - 1;
  for (Symbol S = 0; S < Entries.size(); ++S) {
    std::size_t I = Entries[S].Hash & Mask;
    while (Slots[I] != InvalidSymbol)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
}

Symbol SymbolTable::intern(std::string_view Spelling) {
  return intern(Spelling, hashSpelling(Spelling));
}

Symbol SymbolTable::intern(std::string_view Spelling, std::uint32_t Hash) {
  const std::size_t Mask = Slots.size() - 1;
  std::size_t I = Hash & Mask;
  for (; Slots[I] != InvalidSymbol; I = (I + 1) & Mask) {
    const Entry &E = Entries[Slots[I]];
    if (E.Hash == Hash && E.Size == Spelling.size() &&
        std::equal(Spelling.begin(), Spelling.end(), E.Data))
      return Slots[I];
  }
  char *Copy = Spellings.allocate<char>(Spelling.size());
  std::memcpy(Copy, Spelling.data(), Spelling.size());
  const Symbol S = static_cast<Symbol>(Entries.size());
  Entries.push_back({Copy, static_cast<std::uint32_t>(Spelling.size()), Hash});
  Slots[I] = S;
  // Keep the load factor at or below one half.
  if (Entries.size() * 2 > Slots.size())
    rehash(Slots.size() * 2);
  return S;
}

//===----------------------------------------------------------------------===//
// Lexer
//===----------------------------------------------------------------------===//

static bool isDigit(char C) { return C >= '0' && C <= '9'; }

namespace {
/// Character classes of the identifier scanner.
struct IdentClasses {
  bool Start[256] = {};
  bool Char[256] = {};
  constexpr IdentClasses() {
    for (int C = 0; C < 256; ++C) {
      Start[C] = (C >= 'a' && C <= 'z') || (C >= 'A' && C <= 'Z') || C == '_';
      Char[C] = Start[C] || (C >= '0' && C <= '9');
    }
  }
};
constexpr IdentClasses Ident;
} // namespace

static bool isIdentStart(char C) {
  return Ident.Start[static_cast<unsigned char>(C)];
}

static bool isIdentChar(char C) {
  return Ident.Char[static_cast<unsigned char>(C)];
}

Token Lexer::lexNumber(SourceLoc Start) {
  const char *Begin = Cur;
  // Integer digits: accumulate as they are scanned, noting whether the
  // value passes INT64_MAX.
  std::uint64_t Value = 0;
  bool Overflow = false;
  for (; Cur != End && isDigit(*Cur); ++Cur) {
    const unsigned Digit = static_cast<unsigned>(*Cur - '0');
    if (Value > (std::uint64_t(INT64_MAX) - Digit) / 10)
      Overflow = true;
    else
      Value = Value * 10 + Digit;
  }
  bool IsDouble = false;
  if (peek() == '.' && isDigit(peek(1))) {
    IsDouble = true;
    Cur += 2;
    while (Cur != End && isDigit(*Cur))
      ++Cur;
  }
  if (peek() == 'e' || peek() == 'E') {
    unsigned Ahead = 1;
    if (peek(1) == '+' || peek(1) == '-')
      Ahead = 2;
    if (isDigit(peek(Ahead))) {
      IsDouble = true;
      Cur += Ahead + 1;
      while (Cur != End && isDigit(*Cur))
        ++Cur;
    }
  }
  if (!IsDouble) {
    // A literal is never negative (`-` is an operator), so INT64_MIN
    // has to be written `-9223372036854775807 - 1`.
    if (Overflow)
      error(Start, "integer literal '" + std::string(Begin, Cur) +
                       "' is too large (the largest int is " +
                       std::to_string(INT64_MAX) + ")");
    Token T = makeToken(TokKind::IntLiteral, Start);
    T.IntVal = static_cast<std::int64_t>(Value);
    return T;
  }
  // strtod needs a terminated copy of exactly the lexed span.
  const std::string Digits(Begin, Cur);
  Token T = makeToken(TokKind::DoubleLiteral, Start);
  T.DoubleVal = std::strtod(Digits.c_str(), nullptr);
  return T;
}

Token Lexer::lexIdentifier(SourceLoc Start) {
  const char *Begin = Cur;
  std::uint32_t Hash = FnvBasis;
  for (; Cur != End && isIdentChar(*Cur); ++Cur)
    Hash = fnvStep(Hash, *Cur);
  std::string_view Text(Begin, static_cast<std::size_t>(Cur - Begin));
  const Symbol Sym = Syms.intern(Text, Hash);
  if (Sym < SymbolTable::NumKeywords)
    return makeToken(
        static_cast<TokKind>(static_cast<Symbol>(TokKind::KwInt) + Sym),
        Start);
  Token T = makeToken(TokKind::Identifier, Start);
  T.Sym = Sym;
  T.Text = Text;
  return T;
}

Token Lexer::next() {
  skipWhitespaceAndComments();
  SourceLoc Start = loc();
  if (Cur == End || Stopped)
    return makeToken(TokKind::Eof, Start);

  const char C = *Cur;
  if (isDigit(C))
    return lexNumber(Start);
  if (isIdentStart(C))
    return lexIdentifier(Start);

  ++Cur;
  switch (C) {
  case '(':
    return makeToken(TokKind::LParen, Start);
  case ')':
    return makeToken(TokKind::RParen, Start);
  case '{':
    return makeToken(TokKind::LBrace, Start);
  case '}':
    return makeToken(TokKind::RBrace, Start);
  case '[':
    return makeToken(TokKind::LBracket, Start);
  case ']':
    return makeToken(TokKind::RBracket, Start);
  case ';':
    return makeToken(TokKind::Semicolon, Start);
  case ',':
    return makeToken(TokKind::Comma, Start);
  case '?':
    return makeToken(TokKind::Question, Start);
  case ':':
    return makeToken(TokKind::Colon, Start);
  case '~':
    return makeToken(TokKind::Tilde, Start);
  case '+':
    if (match('='))
      return makeToken(TokKind::PlusAssign, Start);
    if (match('+'))
      return makeToken(TokKind::PlusPlus, Start);
    return makeToken(TokKind::Plus, Start);
  case '-':
    if (match('='))
      return makeToken(TokKind::MinusAssign, Start);
    if (match('-'))
      return makeToken(TokKind::MinusMinus, Start);
    return makeToken(TokKind::Minus, Start);
  case '*':
    return makeToken(match('=') ? TokKind::StarAssign : TokKind::Star, Start);
  case '/':
    return makeToken(match('=') ? TokKind::SlashAssign : TokKind::Slash,
                     Start);
  case '%':
    return makeToken(match('=') ? TokKind::PercentAssign : TokKind::Percent,
                     Start);
  case '&':
    return makeToken(match('&') ? TokKind::AmpAmp : TokKind::Amp, Start);
  case '|':
    return makeToken(match('|') ? TokKind::PipePipe : TokKind::Pipe, Start);
  case '^':
    return makeToken(TokKind::Caret, Start);
  case '!':
    return makeToken(match('=') ? TokKind::BangEq : TokKind::Bang, Start);
  case '=':
    return makeToken(match('=') ? TokKind::EqEq : TokKind::Assign, Start);
  case '<':
    if (match('<'))
      return makeToken(TokKind::Shl, Start);
    return makeToken(match('=') ? TokKind::LessEq : TokKind::Less, Start);
  case '>':
    if (match('>'))
      return makeToken(TokKind::Shr, Start);
    return makeToken(match('=') ? TokKind::GreaterEq : TokKind::Greater,
                     Start);
  default:
    error(Start, std::string("unexpected character '") + C + "'");
    Stopped = true;
    return makeToken(TokKind::Unknown, Start);
  }
}

std::vector<Token> Lexer::lexAll() {
  std::vector<Token> Tokens;
  for (;;) {
    Tokens.push_back(next());
    if (Tokens.back().is(TokKind::Eof) || Tokens.back().is(TokKind::Unknown))
      break;
  }
  if (!Tokens.back().is(TokKind::Eof)) {
    Token Eof;
    Eof.Kind = TokKind::Eof;
    Eof.Loc = Tokens.back().Loc;
    Tokens.push_back(Eof);
  }
  return Tokens;
}

void Lexer::drain() {
  for (Token T = next(); !T.is(TokKind::Eof); T = next()) {
  }
}
