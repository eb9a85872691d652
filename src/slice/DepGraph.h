//===- slice/DepGraph.h - Instruction dependence graph ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A whole-program instruction-level dependence graph built from the
/// interprocedural register summaries and the stack-slot dataflow.  An
/// edge A -> B ("A depends on B") exists when:
///
///   - RegData:  A reads a register whose reaching definition is B
///     (call terminators use/define through their summary effect).
///   - SlotData: A reads a stack slot whose reaching store is B, in
///     entry-sp coordinates, with call MAY-DEF/MAY-USE folded in.
///   - Control:  whether A executes is decided by branch B (classic
///     postdominance-frontier control dependence), or by entering the
///     routine (B is the routine's first instruction).
///   - Call:     junction edges across routine boundaries — a callee
///     entry depends on each call site, a call site depends on each
///     callee return, and values carried across the boundary depend on
///     the call instruction itself.
///
/// The builder parallelizes per routine and produces a deterministic,
/// duplicate-free edge list with CSR indexes for O(degree) traversal in
/// both directions, so slices are bit-identical at every --jobs count.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SLICE_DEPGRAPH_H
#define SPIKE_SLICE_DEPGRAPH_H

#include "psg/Summaries.h"
#include "slice/SlotFlow.h"
#include "support/ThreadPool.h"

#include <cstdint>
#include <vector>

namespace spike {

/// Why one instruction depends on another.
enum class DepKind : uint8_t {
  RegData,  ///< register value flows from Dependency to Dependent.
  SlotData, ///< stack-slot value flows from Dependency to Dependent.
  Control,  ///< Dependency decides whether Dependent executes.
  Call,     ///< routine-boundary junction (call/return/entry glue).
};

/// Short lowercase name for a dependence kind ("reg", "slot", ...).
const char *depKindName(DepKind Kind);

/// One dependence: \p Dependent needs \p Dependency.
struct DepEdge {
  uint64_t Dependent = 0;
  uint64_t Dependency = 0;
  DepKind Kind = DepKind::RegData;

  friend bool operator==(const DepEdge &A, const DepEdge &B) {
    return A.Dependent == B.Dependent && A.Dependency == B.Dependency &&
           A.Kind == B.Kind;
  }
};

/// The whole-program dependence graph with bidirectional CSR indexes.
struct DependenceGraph {
  /// One past the highest instruction address (== Program::numInsts()).
  uint64_t NumAddrs = 0;

  /// All edges, sorted by (Dependent, Dependency, Kind), no duplicates.
  std::vector<DepEdge> Edges;

  /// CSR over Edges by Dependent: the dependencies of address A are
  /// Edges[BackwardIndex[A] .. BackwardIndex[A+1]).
  std::vector<uint32_t> BackwardIndex;

  /// Edge indices ordered by Dependency, with its CSR: the dependents
  /// of address A are Edges[ForwardOrder[I]] for
  /// I in [ForwardIndex[A], ForwardIndex[A+1]).
  std::vector<uint32_t> ForwardOrder;
  std::vector<uint32_t> ForwardIndex;
};

/// Builds the dependence graph of \p Prog.  \p Summaries supplies the
/// register call effects, \p Flow the slot facts; quarantined routines
/// contribute no intra-routine edges (their decoded bytes are
/// placeholders).  Runs per-routine work on \p Pool when non-null; the
/// result is bit-identical for every pool size.  When \p Gov is
/// non-null, every per-routine build task polls it and throws
/// BudgetBlownError naming the routine on a non-Ok verdict.
DependenceGraph buildDepGraph(const Program &Prog,
                              const InterprocSummaries &Summaries,
                              const SlotFlowResult &Flow,
                              ThreadPool *Pool = nullptr,
                              const ResourceGovernor *Gov = nullptr);

} // namespace spike

#endif // SPIKE_SLICE_DEPGRAPH_H
