//===- support/Splice.h - Swap one slice of a flat array ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The splice step of in-place re-analysis: a program-wide array keeps
/// every routine's list back to back, and rebuilt routines' lists
/// replace their slices, shifting the ones after them.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_SPLICE_H
#define SPIKE_SUPPORT_SPLICE_H

#include <algorithm>
#include <cstddef>
#include <vector>

namespace spike {

/// Swaps the \p Count elements of \p All at \p Pos with the elements of
/// \p List, shifting the tail when the counts differ: afterwards \p All
/// holds List's elements there and \p List the replaced ones, so a second
/// call with the same position and List's new size undoes the first.
/// Growing past the capacity moves \p All into a buffer of exactly the
/// new size, so the array never keeps slack.  Everything that can throw
/// happens before \p All changes.
template <class T>
void swapSlice(std::vector<T> &All, size_t Pos, size_t Count,
               std::vector<T> &List) {
  size_t NewCount = List.size();
  if (NewCount == Count) {
    std::swap_ranges(List.begin(), List.end(), All.begin() + Pos);
    return;
  }
  std::vector<T> Old(All.begin() + Pos, All.begin() + Pos + Count);
  size_t Size = All.size() - Count + NewCount;
  if (Size > All.capacity()) {
    std::vector<T> Grown;
    Grown.reserve(Size);
    Grown.insert(Grown.end(), All.begin(), All.begin() + Pos);
    Grown.insert(Grown.end(), List.begin(), List.end());
    Grown.insert(Grown.end(), All.begin() + Pos + Count, All.end());
    All.swap(Grown);
  } else if (NewCount > Count) {
    size_t OldSize = All.size();
    All.resize(Size);
    std::move_backward(All.begin() + Pos + Count, All.begin() + OldSize,
                       All.end());
    std::copy(List.begin(), List.end(), All.begin() + Pos);
  } else {
    std::move(All.begin() + Pos + Count, All.end(),
              All.begin() + Pos + NewCount);
    All.resize(Size);
    std::copy(List.begin(), List.end(), All.begin() + Pos);
  }
  List.swap(Old);
}

/// One slice of a swapSlices call: \p Count elements at \p Pos and the
/// list to swap with them.
template <class T> struct SliceSwap {
  size_t Pos = 0;
  size_t Count = 0;
  std::vector<T> *List = nullptr;
};

/// swapSlice for several slices of \p All, ascending and disjoint, in
/// time linear in the array: one slice swaps in place, slices whose
/// lists keep their counts swap element for element, and otherwise the
/// array is rebuilt once into a buffer of exactly the new size.
template <class T>
void swapSlices(std::vector<T> &All, const std::vector<SliceSwap<T>> &Slices) {
  if (Slices.size() == 1) {
    swapSlice(All, Slices[0].Pos, Slices[0].Count, *Slices[0].List);
    return;
  }
  size_t Size = All.size();
  bool SameCounts = true;
  for (const SliceSwap<T> &S : Slices) {
    Size = Size - S.Count + S.List->size();
    SameCounts &= S.List->size() == S.Count;
  }
  if (SameCounts) {
    for (const SliceSwap<T> &S : Slices)
      std::swap_ranges(S.List->begin(), S.List->end(), All.begin() + S.Pos);
    return;
  }
  std::vector<T> Spliced;
  Spliced.reserve(Size);
  std::vector<std::vector<T>> Old;
  Old.reserve(Slices.size());
  size_t Cursor = 0;
  for (const SliceSwap<T> &S : Slices) {
    Spliced.insert(Spliced.end(), All.begin() + Cursor, All.begin() + S.Pos);
    Spliced.insert(Spliced.end(), S.List->begin(), S.List->end());
    Old.emplace_back(All.begin() + S.Pos, All.begin() + S.Pos + S.Count);
    Cursor = S.Pos + S.Count;
  }
  Spliced.insert(Spliced.end(), All.begin() + Cursor, All.end());
  All.swap(Spliced);
  for (size_t I = 0; I < Slices.size(); ++I)
    Slices[I].List->swap(Old[I]);
}

} // namespace spike

#endif // SPIKE_SUPPORT_SPLICE_H
