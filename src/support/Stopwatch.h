//===- support/Stopwatch.h - Wall-clock timing utilities ------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A plain wall-clock stopwatch for timings that are not telemetry spans
/// (the optimizer's per-round seconds, the fuzzer's loop rate).  The
/// analysis stages of Table 2 and Figure 13 are timed by their telemetry
/// spans instead; see stageSeconds() in psg/Analyzer.h.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_STOPWATCH_H
#define SPIKE_SUPPORT_STOPWATCH_H

#include <chrono>

namespace spike {

/// A restartable wall-clock stopwatch with nanosecond resolution.
class Stopwatch {
public:
  /// Starts (or restarts) the stopwatch.
  void start() { Begin = Clock::now(); }

  /// Returns seconds elapsed since the last start().
  double seconds() const {
    return std::chrono::duration<double>(Clock::now() - Begin).count();
  }

private:
  using Clock = std::chrono::steady_clock;
  Clock::time_point Begin = Clock::now();
};

} // namespace spike

#endif // SPIKE_SUPPORT_STOPWATCH_H
