//===- cfg/SccDriver.cpp - The SCC-schedule solve driver ------------------===//

#include "cfg/SccDriver.h"

#include "telemetry/Telemetry.h"

#include <string>

using namespace spike;

DirtyFrontier::DirtyFrontier(const std::vector<uint8_t> &Clean)
    : Size(Clean.size()), Flags(new std::atomic<uint8_t>[Clean.size()]) {
  for (size_t R = 0; R < Size; ++R)
    Flags[R].store(Clean[R] ? 0 : 1, std::memory_order_relaxed);
}

void DirtyFrontier::flagEach(const std::vector<uint8_t> &Seeds) {
  for (size_t R = 0; R < Seeds.size(); ++R)
    if (Seeds[R])
      flag(uint32_t(R));
}

bool DirtyFrontier::anyDirty(const std::vector<uint32_t> &Routines) const {
  for (uint32_t R : Routines)
    if (dirty(R))
      return true;
  return false;
}

uint64_t DirtyFrontier::count() const {
  uint64_t Count = 0;
  for (size_t R = 0; R < Size; ++R)
    Count += dirty(uint32_t(R));
  return Count;
}

void GroupTask::blown(BudgetVerdict Verdict) const {
  std::vector<std::string> Names;
  Names.reserve(Members.size());
  for (uint32_t R : Members)
    Names.push_back(Prog.Routines[R].Name);
  throw BudgetBlownError(Verdict, Phase, std::move(Names));
}

SccDriver::SccDriver(const Program &Prog, const SccSchedule &Sched,
                     ThreadPool *Pool, const ResourceGovernor *Gov,
                     DirtyFrontier *Frontier)
    : Prog(Prog), Sched(Sched), Pool(Pool), Gov(Gov), Frontier(Frontier),
      Profile(telemetry::profiling()) {
  if (!Profile)
    return;
  Costs.resize(Sched.NumGroups);
  RoutinePops.assign(Prog.Routines.size(), 0);
  for (telemetry::GroupCost &Cost : Costs)
    Cost.RoutinePops = RoutinePops.data();
}

void SccDriver::emit(std::string_view Prefix) const {
  if (Frontier)
    telemetry::count(std::string(Prefix) + ".groups_reused", Reused);
  if (Profile)
    telemetry::emitGroupCosts(
        Prefix, Costs,
        [&](size_t Group) -> const std::vector<uint32_t> & {
          return Sched.Members[Group];
        },
        [&](uint32_t Routine) -> std::string_view {
          return Prog.Routines[Routine].Name;
        },
        RoutinePops.data());
}
