//===- support/BitVector.h - Dynamic bit vector ----------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A dynamically sized bit vector with the set operations needed by the
/// iterative bit-vector data-flow framework (union, intersection,
/// difference, comparison).  The paper's analyses (reaching definitions,
/// liveness, availability, hoist reach, dead reach) are all gen/kill
/// problems over these.
///
/// Storage is small-size optimized: universes of up to 128 bits — the
/// overwhelming majority of per-function key/copy/value sets — live in
/// two inline words, so constructing scratch vectors in the dataflow
/// kernels costs no allocation.  Larger universes spill to the heap.
///
//===----------------------------------------------------------------------===//

#ifndef SLDB_SUPPORT_BITVECTOR_H
#define SLDB_SUPPORT_BITVECTOR_H

#include <bit>
#include <cassert>
#include <cstdint>
#include <cstring>

namespace sldb {

/// Fixed-universe bit set with word-parallel set algebra.
class BitVector {
  using Word = std::uint64_t;
  static constexpr unsigned WordBits = 64;
  static constexpr unsigned NumInline = 2;

public:
  BitVector() = default;

  /// Creates a vector of \p N bits, all set to \p Value.
  explicit BitVector(unsigned N, bool Value = false) { resize(N, Value); }

  BitVector(const BitVector &RHS) { assignFrom(RHS); }

  BitVector(BitVector &&RHS) noexcept { moveFrom(RHS); }

  BitVector &operator=(const BitVector &RHS) {
    if (this != &RHS)
      assignFrom(RHS);
    return *this;
  }

  BitVector &operator=(BitVector &&RHS) noexcept {
    if (this != &RHS) {
      destroy();
      moveFrom(RHS);
    }
    return *this;
  }

  ~BitVector() { destroy(); }

  /// Number of bits in the universe.
  unsigned size() const { return NumBits; }

  bool empty() const { return NumBits == 0; }

  /// Grows or shrinks to \p N bits; new bits get \p Value.
  void resize(unsigned N, bool Value = false);

  /// Tests bit \p Idx.
  bool test(unsigned Idx) const {
    assert(Idx < NumBits && "bit index out of range");
    return (W[Idx / WordBits] >> (Idx % WordBits)) & 1;
  }

  bool operator[](unsigned Idx) const { return test(Idx); }

  /// Sets bit \p Idx.
  void set(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    W[Idx / WordBits] |= Word(1) << (Idx % WordBits);
  }

  /// Sets all bits.
  void set() {
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] = ~Word(0);
    clearUnusedBits();
  }

  /// Clears bit \p Idx.
  void reset(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    W[Idx / WordBits] &= ~(Word(1) << (Idx % WordBits));
  }

  /// Clears all bits.
  void reset() {
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] = 0;
  }

  /// Sets bits [\p Begin, \p End).
  void set(unsigned Begin, unsigned End) {
    forRange(Begin, End, [](Word &X, Word Mask) { X |= Mask; });
  }

  /// Clears bits [\p Begin, \p End).
  void reset(unsigned Begin, unsigned End) {
    forRange(Begin, End, [](Word &X, Word Mask) { X &= ~Mask; });
  }

  /// Flips every bit (complement within the universe).
  void flip() {
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] = ~W[I];
    clearUnusedBits();
  }

  /// Flips bit \p Idx.
  void flip(unsigned Idx) {
    assert(Idx < NumBits && "bit index out of range");
    W[Idx / WordBits] ^= Word(1) << (Idx % WordBits);
  }

  /// Returns true if any bit is set.
  bool any() const {
    for (unsigned I = 0; I < NumWords; ++I)
      if (W[I] != 0)
        return true;
    return false;
  }

  /// Returns true if no bit is set.
  bool none() const { return !any(); }

  /// Returns the number of set bits.
  unsigned count() const {
    unsigned N = 0;
    for (unsigned I = 0; I < NumWords; ++I)
      N += static_cast<unsigned>(std::popcount(W[I]));
    return N;
  }

  /// Returns the index of the first set bit, or -1 if none.
  int findFirst() const {
    for (unsigned I = 0; I < NumWords; ++I)
      if (W[I] != 0)
        return static_cast<int>(I * WordBits + std::countr_zero(W[I]));
    return -1;
  }

  /// Returns the index of the first set bit at or after \p From, or -1.
  int findNext(unsigned From) const {
    unsigned Next = From + 1;
    if (Next >= NumBits)
      return -1;
    unsigned WordIdx = Next / WordBits;
    Word Masked = W[WordIdx] & (~Word(0) << (Next % WordBits));
    if (Masked != 0)
      return static_cast<int>(WordIdx * WordBits + std::countr_zero(Masked));
    for (unsigned I = WordIdx + 1; I < NumWords; ++I)
      if (W[I] != 0)
        return static_cast<int>(I * WordBits + std::countr_zero(W[I]));
    return -1;
  }

  /// Set union: this |= RHS.  Universes must match.
  BitVector &operator|=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] |= RHS.W[I];
    return *this;
  }

  /// Set intersection: this &= RHS.
  BitVector &operator&=(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] &= RHS.W[I];
    return *this;
  }

  /// Set difference: this -= RHS (clear every bit set in RHS).
  BitVector &subtract(const BitVector &RHS) {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0; I < NumWords; ++I)
      W[I] &= ~RHS.W[I];
    return *this;
  }

  /// Returns true if this and RHS share a set bit.
  bool anyCommon(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0; I < NumWords; ++I)
      if ((W[I] & RHS.W[I]) != 0)
        return true;
    return false;
  }

  /// Returns true if every set bit of this is also set in RHS.
  bool isSubsetOf(const BitVector &RHS) const {
    assert(NumBits == RHS.NumBits && "universe mismatch");
    for (unsigned I = 0; I < NumWords; ++I)
      if ((W[I] & ~RHS.W[I]) != 0)
        return false;
    return true;
  }

  bool operator==(const BitVector &RHS) const {
    if (NumBits != RHS.NumBits)
      return false;
    // Equal universes imply equal word counts; padding bits are kept
    // clear, so word equality is set equality.
    for (unsigned I = 0; I < NumWords; ++I)
      if (W[I] != RHS.W[I])
        return false;
    return true;
  }
  bool operator!=(const BitVector &RHS) const { return !(*this == RHS); }

  /// Iterates over the indices of set bits.
  class SetBitIterator {
  public:
    SetBitIterator(const BitVector &BV, int Idx) : BV(BV), Idx(Idx) {}
    unsigned operator*() const { return static_cast<unsigned>(Idx); }
    SetBitIterator &operator++() {
      Idx = BV.findNext(static_cast<unsigned>(Idx));
      return *this;
    }
    bool operator!=(const SetBitIterator &RHS) const { return Idx != RHS.Idx; }

  private:
    const BitVector &BV;
    int Idx;
  };

  SetBitIterator begin() const { return SetBitIterator(*this, findFirst()); }
  SetBitIterator end() const { return SetBitIterator(*this, -1); }

private:
  /// Applies \p Fn(Word, Mask) to every word overlapping bits [\p Begin,
  /// \p End), with Mask selecting the in-range bits of that word.
  template <typename Fn> void forRange(unsigned Begin, unsigned End, Fn F) {
    assert(Begin <= End && End <= NumBits && "bit range out of range");
    if (Begin == End)
      return;
    unsigned First = Begin / WordBits, Last = (End - 1) / WordBits;
    Word Lo = ~Word(0) << (Begin % WordBits);
    Word Hi = ~Word(0) >> (WordBits - 1 - (End - 1) % WordBits);
    if (First == Last) {
      F(W[First], Lo & Hi);
      return;
    }
    F(W[First], Lo);
    for (unsigned I = First + 1; I < Last; ++I)
      F(W[I], ~Word(0));
    F(W[Last], Hi);
  }

  /// Zeroes bits beyond NumBits in the last word.
  void clearUnusedBits() {
    if (NumBits % WordBits != 0 && NumWords != 0)
      W[NumWords - 1] &= ~Word(0) >> (WordBits - NumBits % WordBits);
  }

  void destroy() {
    if (W != Inline)
      delete[] W;
  }

  /// Copies \p RHS into this, reusing existing storage when it fits.
  void assignFrom(const BitVector &RHS) {
    if (RHS.NumWords > Cap) {
      destroy();
      W = new Word[RHS.NumWords];
      Cap = RHS.NumWords;
    }
    NumWords = RHS.NumWords;
    NumBits = RHS.NumBits;
    std::memcpy(W, RHS.W, NumWords * sizeof(Word));
  }

  /// Steals \p RHS's heap storage, or copies its inline words.
  void moveFrom(BitVector &RHS) noexcept {
    NumBits = RHS.NumBits;
    NumWords = RHS.NumWords;
    if (RHS.W == RHS.Inline) {
      W = Inline;
      Cap = NumInline;
      std::memcpy(Inline, RHS.Inline, sizeof(Inline));
    } else {
      W = RHS.W;
      Cap = RHS.Cap;
      RHS.W = RHS.Inline;
      RHS.Cap = NumInline;
      RHS.NumWords = 0;
      RHS.NumBits = 0;
    }
  }

  /// Reallocates to hold \p NW words, preserving current contents.
  void grow(unsigned NW);

  Word Inline[NumInline] = {0, 0};
  Word *W = Inline;
  unsigned Cap = NumInline;
  unsigned NumWords = 0;
  unsigned NumBits = 0;
};

} // namespace sldb

#endif // SLDB_SUPPORT_BITVECTOR_H
