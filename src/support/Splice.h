//===- support/Splice.h - Swap slices of a flat array ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The splice step of every build: a program-wide array keeps every
/// routine's list back to back, a builder writes the lists of a routine
/// subset back to back, and the splice swaps them into the subset's
/// slices, shifting the ones after them.  A fresh build splices every
/// routine into an empty array.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_SPLICE_H
#define SPIKE_SUPPORT_SPLICE_H

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace spike {

/// Lists stored back to back: list I is Items[Begin[I], Begin[I + 1]).
template <class T> struct FlatLists {
  std::vector<T> Items;
  std::vector<uint32_t> Begin;

  std::span<T> list(size_t I) {
    return std::span(Items).subspan(Begin[I], Begin[I + 1] - Begin[I]);
  }
  std::span<const T> list(size_t I) const {
    return std::span(Items).subspan(Begin[I], Begin[I + 1] - Begin[I]);
  }
};

/// Count elements of a flat array at Pos.
struct Slice {
  size_t Pos = 0;
  size_t Count = 0;
};

/// Swaps the \p Slices of \p All, ascending and disjoint, with the lists
/// \p Staging holds back to back from the offsets \p Begin (list I takes
/// the place of slice I), shifting the elements between them.
/// Afterwards All holds the lists and Staging and Begin the replaced
/// slices, so a second call with the lists' new positions undoes the
/// first.  It takes time linear in the array, by the first strategy that
/// applies:
///   - slices whose counts are unchanged swap element by element;
///   - slices covering the whole array swap the vectors;
///   - a single slice shifts the tail in place, and growing past the
///     capacity moves All into a buffer of exactly the new size;
///   - otherwise All is rebuilt once, at its exact new size.
/// Everything that can throw happens before All changes.
template <class T>
void swapSlices(std::vector<T> &All, const std::vector<Slice> &Slices,
                std::vector<T> &Staging, std::vector<uint32_t> &Begin) {
  const size_t N = Slices.size();
  assert(Begin.size() == N + 1 && Begin[0] == 0 &&
         Begin[N] == Staging.size());
  bool SameCounts = true;
  size_t Covered = 0;
  for (size_t I = 0; I < N; ++I) {
    SameCounts &= Begin[I + 1] - Begin[I] == Slices[I].Count;
    Covered += Slices[I].Count;
  }
  if (SameCounts) {
    for (size_t I = 0; I < N; ++I)
      std::swap_ranges(Staging.begin() + Begin[I],
                       Staging.begin() + Begin[I + 1],
                       All.begin() + Slices[I].Pos);
    return;
  }
  if (Covered == All.size()) {
    All.swap(Staging);
    for (size_t I = 0; I < N; ++I)
      Begin[I] = uint32_t(Slices[I].Pos);
    Begin[N] = uint32_t(Staging.size());
    return;
  }
  const size_t Size = All.size() - Covered + Staging.size();
  if (N == 1) {
    const size_t Pos = Slices[0].Pos, Count = Slices[0].Count;
    const size_t NewCount = Staging.size();
    std::vector<T> Old(All.begin() + Pos, All.begin() + Pos + Count);
    if (Size > All.capacity()) {
      std::vector<T> Grown;
      Grown.reserve(Size);
      Grown.insert(Grown.end(), All.begin(), All.begin() + Pos);
      Grown.insert(Grown.end(), Staging.begin(), Staging.end());
      Grown.insert(Grown.end(), All.begin() + Pos + Count, All.end());
      All.swap(Grown);
    } else if (NewCount > Count) {
      size_t OldSize = All.size();
      All.resize(Size);
      std::move_backward(All.begin() + Pos + Count, All.begin() + OldSize,
                         All.end());
      std::copy(Staging.begin(), Staging.end(), All.begin() + Pos);
    } else {
      std::move(All.begin() + Pos + Count, All.end(),
                All.begin() + Pos + NewCount);
      All.resize(Size);
      std::copy(Staging.begin(), Staging.end(), All.begin() + Pos);
    }
    Staging.swap(Old);
    Begin[1] = uint32_t(Count);
    return;
  }
  std::vector<T> Spliced, Old;
  Spliced.reserve(Size);
  Old.reserve(Covered);
  std::vector<uint32_t> OldBegin(N + 1, 0);
  size_t Cursor = 0;
  for (size_t I = 0; I < N; ++I) {
    const Slice &S = Slices[I];
    Spliced.insert(Spliced.end(), All.begin() + Cursor, All.begin() + S.Pos);
    Spliced.insert(Spliced.end(), Staging.begin() + Begin[I],
                   Staging.begin() + Begin[I + 1]);
    Old.insert(Old.end(), All.begin() + S.Pos, All.begin() + S.Pos + S.Count);
    OldBegin[I + 1] = uint32_t(Old.size());
    Cursor = S.Pos + S.Count;
  }
  Spliced.insert(Spliced.end(), All.begin() + Cursor, All.end());
  All.swap(Spliced);
  Staging.swap(Old);
  Begin.swap(OldBegin);
}

} // namespace spike

#endif // SPIKE_SUPPORT_SPLICE_H
