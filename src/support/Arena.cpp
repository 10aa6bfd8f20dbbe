//===- support/Arena.cpp --------------------------------------*- C++ -*-===//
//
// Part of the sldb project (PLDI 1996 reproduction).
//
//===----------------------------------------------------------------------===//

#include "support/Arena.h"

#include <cstdlib>

using namespace sldb;

Arena::Arena(std::size_t FirstSlabBytes)
    : FirstSlabBytes(FirstSlabBytes ? FirstSlabBytes : 4096) {}

Arena::~Arena() {
  for (Slab &S : Slabs)
    ::operator delete(S.Mem, std::align_val_t(alignof(std::max_align_t)));
}

void Arena::grow(std::size_t Bytes) {
  // After reset(), later slabs are still reserved — reuse the next one
  // that fits before asking the OS for more.
  for (std::size_t Next = Slabs.empty() ? 0 : CurSlab + 1;
       Next < Slabs.size(); ++Next) {
    if (Slabs[Next].Size >= Bytes) {
      CurSlab = Next;
      Cur = Slabs[Next].Mem;
      End = Cur + Slabs[Next].Size;
      return;
    }
  }

  std::size_t Size = FirstSlabBytes;
  for (std::size_t I = 0; I < Slabs.size() && Size < MaxSlabBytes; ++I)
    Size *= 2;
  if (Size > MaxSlabBytes)
    Size = MaxSlabBytes;
  if (Size < Bytes)
    Size = Bytes;

  Slab S;
  S.Mem = static_cast<char *>(::operator new(
      Size, std::align_val_t(alignof(std::max_align_t))));
  S.Size = Size;
  Slabs.push_back(S);
  CurSlab = Slabs.size() - 1;
  Cur = S.Mem;
  End = Cur + Size;
}

void *Arena::allocateSlow(std::size_t Bytes, std::size_t Align) {
  if (Bytes == 0)
    Bytes = 1;
  if (Limit && Allocated + Bytes > Limit)
    Exceeded = true; // Soft: serve the request, flag the budget breach.
  std::uintptr_t P = reinterpret_cast<std::uintptr_t>(Cur);
  std::uintptr_t Aligned = (P + Align - 1) & ~(std::uintptr_t(Align) - 1);
  std::size_t Pad = Aligned - P;
  if (!Cur || Bytes + Pad > static_cast<std::size_t>(End - Cur)) {
    // Slabs are max_align_t aligned; over-aligned requests pad as needed.
    grow(Bytes + Align);
    P = reinterpret_cast<std::uintptr_t>(Cur);
    Aligned = (P + Align - 1) & ~(std::uintptr_t(Align) - 1);
    Pad = Aligned - P;
  }
  Cur = reinterpret_cast<char *>(Aligned) + Bytes;
  Allocated += Bytes + Pad;
  return reinterpret_cast<void *>(Aligned);
}

void *Arena::tryAllocate(std::size_t Bytes, std::size_t Align) {
  if (Limit && Allocated + (Bytes ? Bytes : 1) > Limit) {
    Exceeded = true;
    return nullptr;
  }
  return allocate(Bytes, Align);
}

void Arena::reset() {
  Allocated = 0;
  Exceeded = false;
  CurSlab = 0;
  if (Slabs.empty()) {
    Cur = End = nullptr;
    return;
  }
  Cur = Slabs[0].Mem;
  End = Cur + Slabs[0].Size;
}

std::size_t Arena::bytesReserved() const {
  std::size_t N = 0;
  for (const Slab &S : Slabs)
    N += S.Size;
  return N;
}
