//===- provenance/Witness.h - Witness chains on demand --------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The provenance engine: answer "why does this bit hold?" with a
/// *witness chain* — the concrete sequence of PSG edges, callee
/// summaries, and seeds that forces the bit — found by searching the
/// converged graph, then independently *replay* the chain, re-deriving
/// every justification from the graph and the calling standard rather
/// than trusting the search.  `spike-explain` is a thin CLI over these
/// functions; the differential tests compare rendered witnesses
/// byte-for-byte across thread counts and against incremental re-solves.
///
/// Nothing is recorded while solving.  Every bit of a least fixpoint has
/// a finite derivation, so a breadth-first search per register over
/// (fact, node) states, rooted at the register's ground facts and
/// extended along the solver's reverse indexes into states whose
/// converged set holds the register, reaches every set bit.  Reading the
/// BFS parents back from the queried state yields a *shortest* witness:
/// a single acyclic path that ends in a ground fact.  The search reads
/// only the converged graph, in a fixed id order, so witnesses are
/// identical at every --jobs value and after any incremental re-solve.
/// When a queried fact does not hold, no witness exists by construction
/// — a bit a least fixpoint omits is a bit nothing demands (the
/// `--why-dead` argument).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PROVENANCE_WITNESS_H
#define SPIKE_PROVENANCE_WITNESS_H

#include "provenance/Provenance.h"
#include "support/RegSet.h"

#include <cstdint>
#include <string>
#include <vector>

namespace spike {

struct AnalysisResult;

/// One link of a witness chain: the fact (Fact, Node, Reg) and the
/// derivation justifying it.  For facts the solver never evaluates
/// (Section 3.5 Unknown boundary nodes) the derivation is
/// UnknownBoundary, which replay verifies by recomputing the boundary
/// sets.
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

/// One register's breadth-first search over the converged graph.  The
/// states are (fact, node) pairs whose converged set holds the register.
/// The search seeds every ground state in node-id order (and within a
/// node in ProvFact order), then extends each dequeued state along the
/// reverse indexes in a fixed order: in-edges, the call-return edges of
/// an entry's call sites, the exits a return node feeds, and, for an
/// indirect return, every address-taken exit.  Each state keeps the
/// derivation that first reached it, so every reached state's chain is
/// a shortest one.  Scratch lives in the object: one search per query or
/// per register of an audit, nothing shared between searches.
class WitnessSearch {
public:
  /// Searches the states that can derive a \p Goal fact of register
  /// \p Reg (MAY-DEF states for MayDef, MAY-USE states for MayUse, both
  /// MAY-USE and Live states for Live).  With \p StopNode, the search
  /// ends as soon as (\p Goal, \p StopNode) is reached; the chains of
  /// every state reached by then are the ones a full search finds.
  WitnessSearch(const AnalysisResult &A, unsigned Reg, ProvFact Goal,
                uint32_t StopNode = ProvDerivation::NoId);

  /// The witness of (\p Fact, \p NodeId, Reg), which must be a fact
  /// kind this search covers.  Holds is false when the fact does not
  /// hold; a set bit the search never reached yields a one-step chain
  /// with no derivation, which replay rejects.
  Witness witness(ProvFact Fact, uint32_t NodeId) const;

private:
  bool open(ProvFact Fact, uint32_t NodeId) const;
  void reach(ProvFact Fact, uint32_t NodeId, const ProvDerivation &D);
  void derive(ProvFact Fact, uint32_t NodeId, const ProvDerivation &D);
  ProvDerivation groundOf(ProvFact Fact, uint32_t NodeId) const;
  void extend(ProvFact Fact, uint32_t NodeId);

  const AnalysisResult &A;
  unsigned Reg;
  uint8_t Facts; ///< Bit mask of the searched ProvFact kinds.
  uint32_t NumNodes;
  uint32_t Stop; ///< Target state id, or ProvDerivation::NoId.
  bool Done = false;
  bool HubReached = false; ///< An indirect return's Live was extended.
  std::vector<ProvDerivation> How; ///< Per state: Fact * NumNodes + node.
  std::vector<uint32_t> Queue;     ///< Reached states in BFS order.
};

/// The shortest witness of (\p Fact, \p NodeId, \p Reg): one
/// WitnessSearch that stops at the queried state.
Witness buildWitness(const AnalysisResult &A, ProvFact Fact, uint32_t NodeId,
                     unsigned Reg);

/// Re-verifies \p W against the graph without consulting the search:
/// every step's fact must hold, every justification must re-derive (edge
/// endpoints, Section 3.4 filter, calling-standard labels, boundary and
/// seed sets), consecutive steps must connect, and the chain must end in
/// a ground fact.  On failure, returns false and describes the broken
/// step in \p Error (when non-null).
bool replayWitness(const AnalysisResult &A, const Witness &W,
                   std::string *Error = nullptr);

/// Renders "entry#0 node 3 of 'P1' (block 0 @16)"-style node context.
std::string describeNode(const AnalysisResult &A, uint32_t NodeId);

/// Splits a query operand "<reg>@<location>".  False, with the reason in
/// \p Err, when there is no register, it is unknown, or the location is
/// empty.
bool parseWitnessOperand(const std::string &Spec, unsigned &Reg,
                         std::string &Where, std::string &Err);

/// Resolves a query location to a PSG node id: "<kind>:<routine>[#i]"
/// names the i-th (default 0) entry, exit, call or return node of a
/// routine, "node:<id>" a node by id.  An index or id must be a whole
/// decimal number in range; otherwise returns false with the reason in
/// \p Err.  spike-explain and spike-serve share this grammar.
bool resolveWitnessNode(const AnalysisResult &A, const std::string &Where,
                        uint32_t &NodeId, std::string &Err);

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
/// routine entrance — the `--check-witnesses` / CI contract.  Runs one
/// WitnessSearch per register, not one per bit.
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
