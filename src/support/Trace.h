//===- support/Trace.h - Structured span/event tracing ----------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Low-overhead structured tracing: RAII spans and instant events land in
/// per-thread buffers and are written out as Chrome trace format JSON
/// (chrome://tracing, Perfetto, speedscope all read it).  The event half
/// of the observability layer; support/Stats.h is the numeric half.
///
/// Cost model:
///
///  * disabled (the default at runtime) — one relaxed atomic load per
///    call site, no allocation, no clock read;
///  * enabled — a steady_clock read per span boundary plus an append to
///    the calling thread's own buffer (mutex only on first use per
///    thread and at collection time).
///
/// Tracing is observation only: nothing may branch on it, so turning it
/// on can never change a verdict, a transformed module, or a campaign
/// report (tests/trace_invariance_test.cpp holds the system to this).
///
/// Deterministic capture: campaign workers run each unit (a seed, or a
/// (seed, fault-point) pair) under a TraceCapture, which diverts the calling thread's events into
/// a private buffer with timestamps rebased to the capture start.  The
/// campaign merge then concatenates unit buffers in seed-major order
/// with the unit ordinal as the tid, so the *event sequence* of a merged
/// trace is identical for every --jobs value (timestamps remain wall
/// clock, as in any profile).
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_TRACE_H
#define SLDB_SUPPORT_TRACE_H

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace sldb {

/// Appends \p V to \p S as a JSON string literal, quotes included
/// (shared by the trace writer and the explain-mode JSON renderer).
void appendJsonString(std::string &S, const std::string &V);

/// One trace event in Chrome trace format terms: a complete span
/// (Ph == 'X', with duration) or an instant event (Ph == 'i').
struct TraceEvent {
  std::string Name;
  std::string Cat;
  char Ph = 'X';
  std::uint64_t Ts = 0;  ///< Microseconds (process-relative).
  std::uint64_t Dur = 0; ///< Microseconds; spans only.
  std::uint32_t Tid = 0; ///< Filled at collection/merge time.
  std::vector<std::pair<std::string, std::string>> Args;
};

/// The process-wide collector.
class Trace {
public:
  /// Runtime switch; off by default.  enabled() is the one check on
  /// every hot path.
  static void enable() { On.store(true, std::memory_order_relaxed); }
  static void disable() { On.store(false, std::memory_order_relaxed); }
  static bool enabled() { return On.load(std::memory_order_relaxed); }

  /// Appends one finished event to the calling thread's buffer (or the
  /// active TraceCapture's).  No-op when disabled.
  static void record(TraceEvent E);

  /// Emits an instant event.  No-op when disabled.
  static void instant(std::string Name, std::string Cat,
                      std::vector<std::pair<std::string, std::string>>
                          Args = {});

  /// Microseconds since an arbitrary process-wide origin (steady clock).
  static std::uint64_t nowUs();

  /// Moves every thread's buffered events (collection order: by stable
  /// per-thread id, then append order) out of the collector.
  static std::vector<TraceEvent> take();

  /// Drops all buffered events.
  static void clear() { take(); }

  /// Renders events as a complete Chrome trace JSON document.  Events
  /// are ordered by (tid, ts) so timestamps are monotonic within each
  /// tid, and 'X' spans nest properly per tid (both checked by
  /// tools/check_trace_schema.sh).
  static std::string renderJson(const std::vector<TraceEvent> &Events);

  /// take() + renderJson() + write to \p Path.  Returns false on I/O
  /// failure.  Writes a valid empty document when nothing was recorded.
  static bool writeJsonFile(const std::string &Path);

private:
  friend class TraceCapture;
  static std::atomic<bool> On;
};

/// RAII span: records a 'X' (complete) event covering the scope's
/// lifetime.  Constructed disabled-cheap: when tracing is off the
/// constructor is a single relaxed load and the destructor a branch.
class TraceSpan {
public:
  TraceSpan(const char *Name, const char *Cat) {
    if (Trace::enabled()) {
      Active = true;
      E.Name = Name;
      E.Cat = Cat;
      E.Ts = Trace::nowUs();
    }
  }

  /// Attaches a key/value argument (shown in the trace viewer).  No-op
  /// when the span is inactive: the value's string is built only for an
  /// active span, so a disabled trace copies and formats nothing.
  TraceSpan &arg(const char *Key, std::string_view Value) {
    if (Active)
      E.Args.emplace_back(Key, std::string(Value));
    return *this;
  }
  TraceSpan &arg(const char *Key, std::uint64_t Value) {
    if (Active)
      E.Args.emplace_back(Key, std::to_string(Value));
    return *this;
  }

  ~TraceSpan() {
    if (Active) {
      E.Dur = Trace::nowUs() - E.Ts;
      Trace::record(std::move(E));
    }
  }

  TraceSpan(const TraceSpan &) = delete;
  TraceSpan &operator=(const TraceSpan &) = delete;

private:
  bool Active = false;
  TraceEvent E;
};

/// Diverts the calling thread's events into a private buffer for the
/// object's lifetime; timestamps are rebased so the capture starts at
/// ts 0.  Captures do not nest (the inner capture asserts) and must be
/// taken on the thread that created them.
class TraceCapture {
public:
  TraceCapture();
  ~TraceCapture();

  /// The captured events, in emission order.  Ends the capture.
  std::vector<TraceEvent> take();

  TraceCapture(const TraceCapture &) = delete;
  TraceCapture &operator=(const TraceCapture &) = delete;

private:
  std::vector<TraceEvent> Buf;
  std::uint64_t Start = 0;
  bool Ended = false;
};

} // namespace sldb

#endif // SLDB_SUPPORT_TRACE_H
