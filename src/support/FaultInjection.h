//===- support/FaultInjection.h - Deterministic fault seams ---*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Deterministic fault injection for the analysis pipeline.
///
/// A production daemon has to survive the faults that never show up in a
/// clean test run: an allocation failing mid-solve, a worker task
/// throwing, a clock that jumps past a deadline, a client cancelling a
/// query halfway through.  This header provides one scheduled fault per
/// process, installed with an RAII Scope (mirroring telemetry sessions):
/// the pipeline's hook points — allocPoint() on every tracked allocation,
/// taskPoint() on every pool task, skewedElapsedMs() on every deadline
/// read, cancelFired() on every governor poll — consult the active
/// schedule through a single pointer load and fire exactly once when
/// their event counter reaches the trigger.
///
/// The schedules are deterministic by construction at --jobs=1 (event
/// counters advance in program order); at higher job counts the counters
/// are atomic, so *some* event fires exactly once, which is what the
/// robustness contract needs: every injected fault must end in a
/// structured Status error or a sound degraded image, never a wedge,
/// leak, or corrupt output.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SUPPORT_FAULTINJECTION_H
#define SPIKE_SUPPORT_FAULTINJECTION_H

#include <atomic>
#include <cstdint>
#include <new>
#include <stdexcept>
#include <string>

namespace spike {
namespace faultinject {

/// The fault families the --inject-fault=<kind>@<n> seam can schedule.
enum class FaultKind : uint8_t {
  None = 0,
  Alloc,        ///< std::bad_alloc from the Nth tracked allocation.
  TaskThrow,    ///< TaskFault thrown from the Nth ThreadPool task.
  DeadlineSkew, ///< From the Nth deadline read on, the clock reads +1h.
  Cancel,       ///< The Nth governor poll observes a cancellation.
};

/// Stable spelling used by the flag and by error messages.
const char *faultKindName(FaultKind Kind);

/// One scheduled fault: fire Kind at the Trigger-th event (1-based).
struct FaultPlan {
  FaultKind Kind = FaultKind::None;
  uint64_t Trigger = 1;
};

/// Parses "<kind>@<n>" (e.g. "alloc@250", "task-throw@3",
/// "deadline-skew@1", "cancel@40").  Returns false and fills \p Err on a
/// malformed spec.
bool parsePlan(const std::string &Spec, FaultPlan &Plan, std::string &Err);

/// The exception TaskThrow injects: distinct from both BudgetBlownError
/// and std::bad_alloc so tests can pin which seam fired.
class TaskFault : public std::runtime_error {
public:
  explicit TaskFault(uint64_t TaskOrdinal)
      : std::runtime_error("injected task fault at task #" +
                           std::to_string(TaskOrdinal)),
        Ordinal(TaskOrdinal) {}

  uint64_t ordinal() const { return Ordinal; }

private:
  uint64_t Ordinal;
};

/// Counts events for one installed plan and fires exactly once.
class Injector {
public:
  explicit Injector(FaultPlan P) : Plan(P) {}

  FaultKind kind() const { return Plan.Kind; }
  uint64_t trigger() const { return Plan.Trigger; }

  /// True iff the plan's fault has fired at least once.
  bool fired() const { return Fired.load(std::memory_order_relaxed); }

  /// Events of the plan's kind counted so far.
  uint64_t events() const { return Count.load(std::memory_order_relaxed); }

  /// Advances the counter for \p Kind; returns true exactly once, when
  /// the trigger count is reached.
  bool step(FaultKind Kind) {
    if (Plan.Kind != Kind)
      return false;
    uint64_t N = Count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (N != Plan.Trigger)
      return false;
    Fired.store(true, std::memory_order_relaxed);
    return true;
  }

  /// DeadlineSkew is level-triggered rather than edge-triggered: once the
  /// Nth deadline read has happened, every later read stays skewed.
  bool skewActive() {
    if (Plan.Kind != FaultKind::DeadlineSkew)
      return false;
    if (Fired.load(std::memory_order_relaxed))
      return true;
    uint64_t N = Count.fetch_add(1, std::memory_order_relaxed) + 1;
    if (N < Plan.Trigger)
      return false;
    Fired.store(true, std::memory_order_relaxed);
    return true;
  }

private:
  FaultPlan Plan;
  std::atomic<uint64_t> Count{0};
  std::atomic<bool> Fired{false};
};

/// The process-wide active injector, or null.  Hook points below are the
/// only readers; Scope is the only writer.
Injector *active();

/// Installs \p I as the active injector for the scope's lifetime.
/// Scopes do not nest (the flag schedules one fault per run).
class Scope {
public:
  explicit Scope(Injector &I);
  ~Scope();

  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;
};

/// Hook: one tracked allocation.  Throws std::bad_alloc when the active
/// plan is Alloc and this is the Nth call.
inline void allocPoint() {
  if (Injector *I = active())
    if (I->step(FaultKind::Alloc))
      throw std::bad_alloc();
}

/// Hook: one ThreadPool task about to run.  Throws TaskFault when the
/// active plan is TaskThrow and this is the Nth call.
inline void taskPoint() {
  if (Injector *I = active())
    if (I->step(FaultKind::TaskThrow))
      throw TaskFault(I->trigger());
}

/// Hook: one deadline-clock read.  Returns the elapsed time the governor
/// should act on — the real value, plus an hour once DeadlineSkew is
/// active.
inline int64_t skewedElapsedMs(int64_t RealElapsedMs) {
  if (Injector *I = active())
    if (I->skewActive())
      return RealElapsedMs + 3600 * 1000;
  return RealElapsedMs;
}

/// Hook: one governor poll.  Returns true when the active plan is Cancel
/// and this is the Nth call.
inline bool cancelFired() {
  Injector *I = active();
  return I && I->step(FaultKind::Cancel);
}

} // namespace faultinject
} // namespace spike

#endif // SPIKE_SUPPORT_FAULTINJECTION_H
