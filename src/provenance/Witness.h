//===- provenance/Witness.h - Witness chains over derivations -*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The query side of the provenance engine: walk the derivations a
/// recording analysis captured (see Provenance.h) into a *witness chain*
/// — the concrete sequence of PSG edges, callee summaries, and seeds
/// that forces a queried bit — then independently *replay* the chain,
/// re-deriving every justification from the graph and the calling
/// standard rather than trusting the recorder.  `spike-explain` is a
/// thin CLI over these functions; the differential tests compare
/// rendered witnesses byte-for-byte across thread counts.
///
/// Minimality: each recorded derivation is the *first* one that set its
/// bit, so a witness is a single path (never a DAG of alternatives) and
/// every step is necessary to reach the ground fact along that path.
/// When a queried fact does not hold, no witness exists by construction
/// — the solver computes least fixpoints, and a bit a least fixpoint
/// omits is a bit nothing demands (the `--why-dead` argument).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PROVENANCE_WITNESS_H
#define SPIKE_PROVENANCE_WITNESS_H

#include "provenance/Provenance.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spike {

struct AnalysisResult;

/// One link of a witness chain: the fact (Fact, Node, Reg) and the
/// recorded derivation justifying it, expanded from the store's
/// ProvRecord (buildWitness derives the fields the record omits).  For
/// facts the solver never evaluates (Section 3.5 Unknown boundary nodes)
/// the walker synthesizes How.Kind == UnknownBoundary; replay verifies it
/// by recomputing the boundary sets.
struct WitnessStep {
  ProvFact Fact = ProvFact::Live;
  uint32_t Node = 0;
  unsigned Reg = 0;
  ProvDerivation How;
};

/// A complete answer to one "why does this bit hold?" query.
struct Witness {
  /// True if the queried fact holds at all.  False means no witness is
  /// needed (least-fixpoint minimality); Steps is then empty.
  bool Holds = false;

  /// Query-first chain: Steps.front() is the queried fact, each step's
  /// derivation references the next, Steps.back() is grounded.
  std::vector<WitnessStep> Steps;
};

/// Returns the current fact set of kind \p Fact at \p NodeId.
RegSet factSet(const AnalysisResult &A, ProvFact Fact, uint32_t NodeId);

/// Walks the recorded derivations of (\p Fact, \p NodeId, \p Reg) back
/// to a ground fact, expanding each stored record into a ProvDerivation.
/// \p A must come from a RecordProvenance analysis.
Witness buildWitness(const AnalysisResult &A, ProvFact Fact, uint32_t NodeId,
                     unsigned Reg);

/// Re-verifies \p W against the graph without consulting the recorder:
/// every step's fact must hold, every justification must re-derive (edge
/// endpoints, Section 3.4 filter, calling-standard labels, boundary and
/// seed sets), consecutive steps must connect, and the chain must end in
/// a ground fact.  On failure, returns false and describes the broken
/// step in \p Error (when non-null).
bool replayWitness(const AnalysisResult &A, const Witness &W,
                   std::string *Error = nullptr);

/// Renders "entry#0 node 3 of 'P1' (block 0 @16)"-style node context.
std::string describeNode(const AnalysisResult &A, uint32_t NodeId);

/// Renders \p W as deterministic human-readable text (one line per step
/// plus the ground summary), byte-identical across thread counts.
std::string renderWitness(const AnalysisResult &A, const Witness &W);

/// The node and edge ids a witness traverses, for DOT highlighting.
struct WitnessPath {
  std::vector<uint32_t> Nodes;
  std::vector<uint32_t> Edges;
};
WitnessPath witnessPath(const Witness &W);

/// Builds and replays a witness for *every* live-at-entry bit of every
/// routine entrance — the `--check-witnesses` / CI contract.
struct WitnessAudit {
  uint64_t EntriesChecked = 0;
  uint64_t BitsChecked = 0;
  std::vector<std::string> Failures; ///< Empty on success.
};
WitnessAudit auditEntryLiveness(const AnalysisResult &A);

/// Renders the witness of every live-at-entry bit (routines, entrances,
/// and registers in ascending order) — the byte-identity surface of the
/// jobs-differential tests.
std::string renderEntryWitnesses(const AnalysisResult &A);

/// The `--why-dead` answer for the definition at \p Address: replays the
/// SL003/DeadDefElim liveness lens at the def site.  If the destination
/// is dead, explains what bounds its life (redefinition, call-kill, or
/// absence from every boundary — the least-fixpoint argument); if it is
/// live, locates a concrete observer (an instruction use, a consuming
/// call, an exit, or an unresolved jump) and chains into the PSG witness
/// behind it.  \p RegArg selects the register when the instruction
/// defines several; -1 picks the first.
struct DeadDefExplanation {
  bool Found = false; ///< Address resolves to a definition of Reg.
  bool Dead = false;  ///< Interprocedurally dead (DeadDefElim would fire).
  unsigned Reg = 0;
  std::string Text; ///< Full rendered explanation.
};
DeadDefExplanation explainDeadDef(const AnalysisResult &A, uint64_t Address,
                                  int RegArg = -1);

} // namespace spike

#endif // SPIKE_PROVENANCE_WITNESS_H
