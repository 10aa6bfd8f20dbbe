//===- service/Protocol.h - sldbd request/response protocol -----*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The line-oriented request protocol of the classification daemon
/// (`sldbd`).  One request per line:
///
///   [@<session>] <verb> [args...]
///
/// Verbs: `load <name> seed:<N>|file:<path>`, `classify <module> <func>
/// <stmt> <var>`, `classify-all <module> <func> <stmt>`, `explain
/// <module> <func> <stmt> <var>`, `step <module> <n>`, `health`,
/// `stats`, `shutdown`.  Blank lines are *batch delimiters*: the server
/// processes each block of lines as one admission-controlled batch and
/// answers them in block order, so batch composition — and therefore
/// shedding — is fixed by the stream, never by arrival timing.
///
/// Responses are one line each, echoing the session prefix:
///
///   [@<session>] ok <payload>
///   [@<session>] err <error-code> <message>
///   [@<session>] shed retry-after-ms=<N>
///
/// Every response to a fixed request stream is byte-identical at any
/// `--jobs` (the service determinism rule; tests/service_test.cpp).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SERVICE_PROTOCOL_H
#define SLDB_SERVICE_PROTOCOL_H

#include "support/Status.h"

#include <string>
#include <string_view>
#include <vector>

namespace sldb {

/// Request verbs.  Invalid carries a parse diagnostic in Request::Error.
enum class Verb : std::uint8_t {
  Invalid = 0,
  Load,
  Classify,
  ClassifyAll,
  Explain,
  Step,
  Health,
  StatsVerb,
  Shutdown, ///< Last: per-verb tables are sized by it.
};

const char *verbName(Verb V);

/// One parsed request line.
struct Request {
  Verb V = Verb::Invalid;
  std::string Session;           ///< Empty when the line had no @prefix.
  std::vector<std::string> Args; ///< Whitespace-split operands.
  std::string Error;             ///< Parse diagnostic when V == Invalid.

  /// True for verbs that bypass admission control (cheap, diagnostic, or
  /// lifecycle: health / stats / shutdown must answer even under load).
  bool bypassesAdmission() const {
    return V == Verb::Health || V == Verb::StatsVerb || V == Verb::Shutdown;
  }

  /// True for verbs that are *barriers*: they mutate the module registry
  /// and therefore serialize against the surrounding query batch.
  bool isBarrier() const { return V == Verb::Load || V == Verb::Shutdown; }
};

/// Parses one request line (no trailing newline).  Never fails hard: an
/// unparseable line yields Verb::Invalid with Error set, which the
/// server answers with `err invalid-argument ...`.
Request parseRequest(std::string_view Line);

/// Response renderers.  All take the session tag so the reply can be
/// routed by the client; Session may be empty.
std::string renderOk(const std::string &Session, const std::string &Payload);
std::string renderErr(const std::string &Session, ErrorCode C,
                      const std::string &Msg);
std::string renderShed(const std::string &Session, std::uint32_t RetryAfterMs);

/// Splits \p Text into blank-line-delimited batches of request lines
/// ('\r' tolerated).  Consecutive blank lines collapse; a trailing
/// unterminated batch is included.
std::vector<std::vector<std::string>> splitBatches(std::string_view Text);

} // namespace sldb

#endif // SLDB_SERVICE_PROTOCOL_H
