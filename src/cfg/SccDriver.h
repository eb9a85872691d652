//===- cfg/SccDriver.h - The SCC-schedule solve driver --------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The one level loop behind every SCC-scheduled solver.
///
/// A solver supplies its per-group kernel (and, when it re-solves
/// incrementally, a keep function); the driver owns the rest of the
/// schedule: one pool batch per condensation level, with memberless
/// groups skipped inside their task; keep-if-clean or
/// flag-every-member-dirty-and-solve against a DirtyFrontier; the per-pop
/// governor poll; GroupCost timing; an optional serial level join; and
/// the phase's profiling and reuse emission.  DESIGN.md §10 states the
/// contract.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_SCCDRIVER_H
#define SPIKE_CFG_SCCDRIVER_H

#include "cfg/Program.h"
#include "cfg/SccSchedule.h"
#include "support/Budget.h"
#include "support/ThreadPool.h"
#include "telemetry/Profiling.h"

#include <atomic>
#include <memory>
#include <string_view>
#include <vector>

namespace spike {

/// The monotone (false -> true only) per-routine dirty flags of an
/// incremental re-solve.  Relaxed atomics: groups of one level may flag a
/// common later-level dependent concurrently, and the pool's level joins
/// order every cross-level read after the writes.
class DirtyFrontier {
public:
  /// Seeds routine R dirty exactly when \p Clean[R] is 0.
  explicit DirtyFrontier(const std::vector<uint8_t> &Clean);

  bool dirty(uint32_t Routine) const {
    return Flags[Routine].load(std::memory_order_relaxed) != 0;
  }
  void flag(uint32_t Routine) {
    Flags[Routine].store(1, std::memory_order_relaxed);
  }
  /// Flags every routine R whose \p Seeds[R] is set.
  void flagEach(const std::vector<uint8_t> &Seeds);
  bool anyDirty(const std::vector<uint32_t> &Routines) const;
  /// Number of dirty routines.
  uint64_t count() const;

private:
  size_t Size;
  std::unique_ptr<std::atomic<uint8_t>[]> Flags;
};

/// One group's solve as the driver hands it to a kernel.
class GroupTask {
public:
  const uint32_t Group;
  const unsigned Lane;
  const std::vector<uint32_t> &Members;
  telemetry::GroupCost *const Cost; ///< Null unless profiling.

  /// Counts one unit of work (a worklist pop, or a sweep) and polls the
  /// governor with this task's own count; a non-Ok verdict throws
  /// BudgetBlownError naming the group's members.
  void step() {
    ++Steps;
    if (Gov) {
      BudgetVerdict V = Gov->poll(Steps);
      if (V != BudgetVerdict::Ok)
        blown(V);
    }
  }

  /// Attributes one evaluation of member \p Routine to the profile.
  void pop(uint32_t Routine) {
    if (Cost) {
      ++Cost->Pops;
      ++Cost->RoutinePops[Routine];
    }
  }

  uint64_t steps() const { return Steps; }

private:
  friend class SccDriver;
  GroupTask(uint32_t Group, unsigned Lane,
            const std::vector<uint32_t> &Members, telemetry::GroupCost *Cost,
            const Program &Prog, const ResourceGovernor *Gov,
            const char *Phase)
      : Group(Group), Lane(Lane), Members(Members), Cost(Cost), Prog(Prog),
        Gov(Gov), Phase(Phase) {}

  [[noreturn]] void blown(BudgetVerdict Verdict) const;

  const Program &Prog;
  const ResourceGovernor *Gov;
  const char *Phase;
  uint64_t Steps = 0;
};

/// Runs solver passes over one SCC schedule and accumulates the phase's
/// profile across them.
class SccDriver {
public:
  /// \p Frontier is null for a fresh solve: every group solves.
  SccDriver(const Program &Prog, const SccSchedule &Sched, ThreadPool *Pool,
            const ResourceGovernor *Gov, DirtyFrontier *Frontier);

  /// The default keep and level-join hook: nothing to do.
  struct NoHook {
    void operator()(const std::vector<uint32_t> &) const {}
  };

  /// Runs one pass level by level.  Per non-empty group, in its own task:
  /// with a frontier and no dirty member, Keep(Members); otherwise
  /// every member is flagged dirty and Solve(GroupTask &) runs, timed
  /// into the group's cost.  After each level's join, Join(Level) runs
  /// serially.  \p Phase names the pass in budget errors.
  template <class SolveFn, class KeepFn = NoHook, class JoinFn = NoHook>
  void run(const char *Phase, SolveFn Solve, KeepFn Keep = {},
           JoinFn Join = {}) {
    // One task body for every level, so running a level allocates
    // nothing however many levels the schedule has.
    const std::vector<uint32_t> *LevelPtr = nullptr;
    ThreadPool::Body Task = [&](size_t I, unsigned Lane) {
      uint32_t Group = (*LevelPtr)[I];
      const std::vector<uint32_t> &Members = Sched.Members[Group];
      if (Members.empty())
        return;
      if (Frontier) {
        if (!Frontier->anyDirty(Members)) {
          Keep(Members);
          ++Reused;
          return;
        }
        for (uint32_t R : Members)
          Frontier->flag(R);
      }
      GroupTask T(Group, Lane, Members, Profile ? &Costs[Group] : nullptr,
                  Prog, Gov, Phase);
      uint64_t T0 = T.Cost ? telemetry::costClockNs() : 0;
      Solve(T);
      if (T.Cost)
        T.Cost->Ns += telemetry::costClockNs() - T0;
      Steps += T.steps();
    };
    for (const std::vector<uint32_t> &Level : Sched.Levels) {
      LevelPtr = &Level;
      forEachTask(Pool, Level.size(), Task);
      Join(Level);
    }
  }

  /// Total steps of every group solved so far.
  uint64_t steps() const { return Steps; }

  /// Emits the phase once, after its last pass: "<Prefix>.groups_reused"
  /// when re-solving incrementally, and the per-group costs when
  /// profiling (telemetry::emitGroupCosts).
  void emit(std::string_view Prefix) const;

private:
  const Program &Prog;
  const SccSchedule &Sched;
  ThreadPool *Pool;
  const ResourceGovernor *Gov;
  DirtyFrontier *Frontier;
  bool Profile;
  std::vector<telemetry::GroupCost> Costs;
  std::vector<uint64_t> RoutinePops;
  std::atomic<uint64_t> Reused{0};
  std::atomic<uint64_t> Steps{0};
};

} // namespace spike

#endif // SPIKE_CFG_SCCDRIVER_H
