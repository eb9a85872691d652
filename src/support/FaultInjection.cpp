//===- support/FaultInjection.cpp - Deterministic fault seams -------------===//

#include "support/FaultInjection.h"

#include "support/ParseUnsigned.h"

#include <atomic>

using namespace spike;
using namespace spike::faultinject;

namespace {

std::atomic<Injector *> ActiveInjector{nullptr};

} // namespace

const char *spike::faultinject::faultKindName(FaultKind Kind) {
  switch (Kind) {
  case FaultKind::None:
    return "none";
  case FaultKind::Alloc:
    return "alloc";
  case FaultKind::TaskThrow:
    return "task-throw";
  case FaultKind::DeadlineSkew:
    return "deadline-skew";
  case FaultKind::Cancel:
    return "cancel";
  }
  return "unknown";
}

bool spike::faultinject::parsePlan(const std::string &Spec, FaultPlan &Plan,
                                   std::string &Err) {
  size_t At = Spec.find('@');
  if (At == std::string::npos || At == 0 || At + 1 == Spec.size()) {
    Err = "expected <kind>@<n>, got '" + Spec + "'";
    return false;
  }
  std::string Kind = Spec.substr(0, At);
  std::string Count = Spec.substr(At + 1);

  if (Kind == "alloc")
    Plan.Kind = FaultKind::Alloc;
  else if (Kind == "task-throw")
    Plan.Kind = FaultKind::TaskThrow;
  else if (Kind == "deadline-skew")
    Plan.Kind = FaultKind::DeadlineSkew;
  else if (Kind == "cancel")
    Plan.Kind = FaultKind::Cancel;
  else {
    Err = "unknown fault kind '" + Kind +
          "' (want alloc, task-throw, deadline-skew, or cancel)";
    return false;
  }

  std::optional<uint64_t> N = parseUnsignedStrict(Count);
  if (!N || *N == 0) {
    Err = "fault trigger must be a positive integer, got '" + Count + "'";
    return false;
  }
  Plan.Trigger = *N;
  return true;
}

Injector *spike::faultinject::active() {
  return ActiveInjector.load(std::memory_order_acquire);
}

Scope::Scope(Injector &I) {
  ActiveInjector.store(&I, std::memory_order_release);
}

Scope::~Scope() { ActiveInjector.store(nullptr, std::memory_order_release); }
