//===- support/Arena.h - Bump-pointer slab allocator ------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A bump-pointer arena: allocations come from geometrically growing slabs
/// and are never freed individually.  The IR memory model is built on it —
/// every IRFunction, BasicBlock, instruction-pool slab, and machine-code
/// buffer of a module lives in one arena, so a compile touches a handful
/// of contiguous slabs instead of one heap node per instruction.
///
/// Ownership rules (DESIGN.md "IR memory model & batch compilation"):
///
///  * the arena owns *memory*, not *objects* — it never runs destructors.
///    Whoever placement-constructs a non-trivially-destructible object on
///    the arena must destroy it explicitly (IRModule destroys its
///    functions, IRFunction its blocks, InstrPool its instructions);
///  * `reset()` recycles the slabs for reuse without returning them to
///    the OS — the batch compiler's per-module amortization.  Calling it
///    while arena-resident objects are alive is a use-after-reset bug;
///    the owner (IRModule / MachineModule) must already be gone.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_ARENA_H
#define SLDB_SUPPORT_ARENA_H

#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>
#include <vector>

namespace sldb {

/// Bump-pointer allocator over geometrically growing slabs.
class Arena {
public:
  /// \p FirstSlabBytes is the size of the first slab; subsequent slabs
  /// double up to MaxSlabBytes.  Oversized requests get a dedicated slab.
  explicit Arena(std::size_t FirstSlabBytes = 4096);

  Arena(const Arena &) = delete;
  Arena &operator=(const Arena &) = delete;

  ~Arena();

  /// Allocates \p Bytes with \p Align alignment (power of two).  The
  /// common case, an unbudgeted request that fits the current slab, is
  /// inline.
  void *allocate(std::size_t Bytes, std::size_t Align) {
    std::uintptr_t P = reinterpret_cast<std::uintptr_t>(Cur);
    std::uintptr_t Aligned = (P + Align - 1) & ~(std::uintptr_t(Align) - 1);
    std::size_t Pad = Aligned - P;
    if (Bytes == 0 || Limit || !Cur ||
        Bytes + Pad > static_cast<std::size_t>(End - Cur))
      return allocateSlow(Bytes, Align);
    Cur = reinterpret_cast<char *>(Aligned) + Bytes;
    Allocated += Bytes + Pad;
    return reinterpret_cast<void *>(Aligned);
  }

  /// Allocates uninitialized storage for \p N objects of type T.
  template <typename T> T *allocate(std::size_t N = 1) {
    return static_cast<T *>(allocate(N * sizeof(T), alignof(T)));
  }

  /// Placement-constructs a T on the arena.  The caller owns the object
  /// lifetime: the arena will NOT run ~T().
  template <typename T, typename... Args> T *make(Args &&...ArgList) {
    return new (allocate<T>()) T(std::forward<Args>(ArgList)...);
  }

  /// Hard-checked variant of allocate(): returns null (allocating
  /// nothing) when the request would push bytesAllocated() past the
  /// limit.  For callers that can surface the failure directly.
  void *tryAllocate(std::size_t Bytes, std::size_t Align);

  /// Recycles every slab for reuse: subsequent allocations refill the
  /// already-reserved memory.  All objects previously allocated here must
  /// already be destroyed — see the ownership rules above.
  void reset();

  //===--- Memory budget --------------------------------------------------===//
  //
  // The limit is *soft* for allocate(): exceeding it never returns a bad
  // pointer into code built on infallible allocation (`-fno-exceptions`,
  // no null checks at IR construction sites).  Instead the arena goes
  // sticky-exceeded, and budgeted drivers (service loads, `sldbc
  // --batch --arena-limit`) test `limitExceeded()` at phase boundaries
  // and turn it into a structured `ErrorCode::ResourceExhausted` — the
  // request dies, the process does not.  tryAllocate() is the hard
  // variant for callers that can handle null.

  /// Sets the budget in bytes (0 = unlimited).  Applies to bytes handed
  /// out since the last reset(); survives reset().
  void setLimit(std::size_t Bytes) { Limit = Bytes; }
  std::size_t limit() const { return Limit; }

  /// True once any allocation pushed bytesAllocated() past the limit.
  /// Sticky until reset().
  bool limitExceeded() const { return Exceeded; }

  /// Total bytes handed out since construction or the last reset().
  std::size_t bytesAllocated() const { return Allocated; }

  /// Total bytes currently reserved from the OS across all slabs.
  std::size_t bytesReserved() const;

  /// Number of slabs currently reserved.
  std::size_t numSlabs() const { return Slabs.size(); }

private:
  struct Slab {
    char *Mem = nullptr;
    std::size_t Size = 0;
  };

  /// Makes Cur/End point at a slab with at least \p Bytes free.
  void grow(std::size_t Bytes);
  /// allocate() for empty and budgeted requests and slab changes.
  void *allocateSlow(std::size_t Bytes, std::size_t Align);

  std::vector<Slab> Slabs;
  std::size_t CurSlab = 0; ///< Index of the slab Cur points into.
  char *Cur = nullptr;
  char *End = nullptr;
  std::size_t FirstSlabBytes;
  std::size_t Allocated = 0;
  std::size_t Limit = 0;  ///< 0 = unlimited.
  bool Exceeded = false;  ///< Sticky over-budget flag (see above).

  static constexpr std::size_t MaxSlabBytes = std::size_t(1) << 20;
};

} // namespace sldb

#endif // SLDB_SUPPORT_ARENA_H
