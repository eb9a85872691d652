//===- dataflow/Worklist.h - Deduplicating index worklist -----*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A FIFO worklist over dense indices with O(1) duplicate suppression,
/// used by every iterative dataflow solver in the project.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_DATAFLOW_WORKLIST_H
#define SPIKE_DATAFLOW_WORKLIST_H

#include <cassert>
#include <cstdint>
#include <vector>

namespace spike {

/// FIFO worklist over indices [0, Size).  push() of an element already in
/// the list is a no-op, so at most Size indices are queued at once and
/// the queue is a fixed ring of Size slots.
class Worklist {
public:
  explicit Worklist(size_t Size) { reset(Size); }

  /// Empties the list and re-sizes it to indices [0, Size), keeping the
  /// storage for reuse.
  void reset(size_t Size) {
    InList.assign(Size, false);
    Ring.resize(Size);
    Head = 0;
    Count = 0;
  }

  /// Adds \p Index unless already queued.
  void push(uint32_t Index) {
    assert(Index < InList.size() && "index out of range");
    if (InList[Index])
      return;
    InList[Index] = true;
    size_t Tail = Head + Count;
    Ring[Tail < Ring.size() ? Tail : Tail - Ring.size()] = Index;
    ++Count;
  }

  /// Adds every index in [0, size).
  void pushAll() {
    for (uint32_t Index = 0; Index < InList.size(); ++Index)
      push(Index);
  }

  /// Removes and returns the next index.
  uint32_t pop() {
    assert(!empty() && "pop from empty worklist");
    uint32_t Index = Ring[Head];
    if (++Head == Ring.size())
      Head = 0;
    --Count;
    InList[Index] = false;
    return Index;
  }

  bool empty() const { return Count == 0; }

  size_t size() const { return Count; }

private:
  std::vector<bool> InList;
  std::vector<uint32_t> Ring;
  size_t Head = 0;  ///< Ring slot of the next pop.
  size_t Count = 0; ///< Queued indices.
};

} // namespace spike

#endif // SPIKE_DATAFLOW_WORKLIST_H
