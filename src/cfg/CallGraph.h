//===- cfg/CallGraph.h - Whole-program call graph -------------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The direct-call graph of a Program, with the derived facts the rest
/// of the system needs:
///
///   - deduplicated callee / caller adjacency,
///   - strongly connected components (Tarjan) and the routines that lie
///     on call cycles (recursion blocks the Figure 1(d) reallocation),
///   - reachability from the roots — the program entry routine and every
///     address-taken routine — which drives unreachable-routine
///     elimination and is a prerequisite for any whole-program rewrite.
///
/// Indirect calls are represented conservatively: the set of routines
/// making them is recorded, and address-taken routines count as roots
/// (any indirect call might reach them).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_CFG_CALLGRAPH_H
#define SPIKE_CFG_CALLGRAPH_H

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace spike {

struct Program;
class ThreadPool;

/// Lists of ids packed back to back (CSR): list I is
/// Ids[Begin[I], Begin[I + 1]).  Two arrays however many lists there are.
struct CsrLists {
  std::vector<uint32_t> Begin{0};
  std::vector<uint32_t> Ids;

  /// Returns the number of lists.
  size_t size() const { return Begin.size() - 1; }
  bool empty() const { return size() == 0; }

  std::span<const uint32_t> operator[](size_t I) const {
    return std::span<const uint32_t>(Ids).subspan(Begin[I],
                                                  Begin[I + 1] - Begin[I]);
  }

  /// Closes the list being appended to Ids.
  void endList() { Begin.push_back(uint32_t(Ids.size())); }
};

/// Strongly connected components of the graph whose node U has the
/// successors \p Succs[U], by one iterative Tarjan: roots in ascending
/// node order, successors in list order.  Component ids are assigned as
/// components complete, which is reverse topological order (an edge
/// U -> V across components gives V the smaller id).  Fills
/// \p Component per node and returns the number of components.
uint32_t sccComponents(const CsrLists &Succs, std::vector<uint32_t> &Component);

/// The call graph and its derived facts.
struct CallGraph {
  /// Deduplicated direct callees per routine, ascending.
  CsrLists Callees;

  /// Deduplicated direct callers per routine (inverse of Callees),
  /// ascending.
  CsrLists Callers;

  /// True for routines containing at least one indirect call.
  std::vector<bool> HasIndirectCalls;

  /// SCC id per routine; ids are assigned in reverse topological order
  /// of the condensation (a routine's SCC id is >= its callees' unless
  /// they share a component).
  std::vector<uint32_t> SccId;

  /// Number of SCCs.
  uint32_t NumSccs = 0;

  /// True for routines on a directed call cycle (a nontrivial SCC or a
  /// direct self-call).
  std::vector<bool> InCycle;

  /// True for routines reachable from the entry routine or any
  /// address-taken routine via direct calls.
  std::vector<bool> Reachable;

  /// Returns true if \p Caller directly calls \p Callee.
  bool calls(uint32_t Caller, uint32_t Callee) const {
    for (uint32_t C : Callees[Caller])
      if (C == Callee)
        return true;
    return false;
  }
};

/// Builds the call graph of \p Prog; each routine's callee list is one
/// task on \p Pool (inline when null).  buildProgram stores the result
/// in Program::Calls, and every consumer reads that copy.
CallGraph buildCallGraph(const Program &Prog, ThreadPool *Pool = nullptr);

} // namespace spike

#endif // SPIKE_CFG_CALLGRAPH_H
