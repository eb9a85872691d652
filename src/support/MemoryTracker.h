//===- support/MemoryTracker.h - Analysis memory accounting ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Byte-level accounting for the memory consumed by an analysis run.
///
/// Table 2 and Figure 15 of the paper report the memory required to perform
/// interprocedural dataflow analysis.  Spike's numbers count the analysis
/// data structures (CFG, DEF/UBD sets, PSG nodes and edges, dataflow sets),
/// not the program image itself.  We reproduce that by letting every
/// analysis container report its footprint to a MemoryTracker.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_MEMORYTRACKER_H
#define SPIKE_SUPPORT_MEMORYTRACKER_H

#include "support/FaultInjection.h"

#include <cstddef>
#include <cstdint>
#include <vector>

namespace spike {

/// Accumulates bytes charged by analysis data structures.
///
/// Trackers are plain value objects passed by pointer; a null tracker is
/// allowed everywhere and means "do not account".
class MemoryTracker {
public:
  /// Charges \p Bytes to the tracker.  Every charge is a fault-injection
  /// allocation point: under --inject-fault=alloc@<n> the Nth tracked
  /// allocation in the process throws std::bad_alloc, exactly as a real
  /// allocator would at that spot.
  void charge(size_t Bytes) {
    faultinject::allocPoint();
    LiveBytes += Bytes;
    if (LiveBytes > PeakBytes)
      PeakBytes = LiveBytes;
  }

  /// Releases \p Bytes previously charged.
  void release(size_t Bytes) {
    LiveBytes = Bytes > LiveBytes ? 0 : LiveBytes - Bytes;
  }

  /// Returns the bytes currently charged.
  uint64_t liveBytes() const { return LiveBytes; }

  /// Returns the maximum of liveBytes() over the tracker's lifetime.
  uint64_t peakBytes() const { return PeakBytes; }

  /// Returns peak usage in mebibytes.
  double peakMBytes() const {
    return double(PeakBytes) / (1024.0 * 1024.0);
  }

  /// Sets both counters to \p Bytes: the footprint of a result rebuilt in
  /// place, as a fresh build of it, which releases nothing, would leave
  /// them.  Not an allocation point.
  void settle(uint64_t Bytes) {
    LiveBytes = Bytes;
    PeakBytes = Bytes;
  }

  /// Resets both counters to zero.
  void reset() {
    LiveBytes = 0;
    PeakBytes = 0;
  }

private:
  uint64_t LiveBytes = 0;
  uint64_t PeakBytes = 0;
};

/// Charges \p Tracker (if non-null) for \p Bytes; returns \p Bytes.
inline size_t chargeIf(MemoryTracker *Tracker, size_t Bytes) {
  if (Tracker)
    Tracker->charge(Bytes);
  return Bytes;
}

/// Returns the bytes \p V's elements occupy, size() times the element
/// size: what the analyses charge for a container.
template <class T> size_t elementBytes(const std::vector<T> &V) {
  return V.size() * sizeof(T);
}

/// std::vector<bool> packs its elements, a bit each.
inline size_t elementBytes(const std::vector<bool> &V) {
  return (V.size() + 7) / 8;
}

/// Returns the element bytes of every inner vector of \p Lists.
template <class T>
size_t nestedElementBytes(const std::vector<std::vector<T>> &Lists) {
  size_t Bytes = 0;
  for (const std::vector<T> &List : Lists)
    Bytes += elementBytes(List);
  return Bytes;
}

} // namespace spike

#endif // SPIKE_SUPPORT_MEMORYTRACKER_H
