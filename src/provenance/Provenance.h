//===- provenance/Provenance.h - Witness step types -----------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The vocabulary of a witness chain (see Witness.h): which fact a step
/// states and how that fact is derived from the converged PSG — an edge
/// label, a callee summary, a return site, an exit seed, or one more
/// fact further along the chain.
///
/// Only the three monotone (least-fixpoint) kinds have witnesses.
/// MUST-DEF is a must problem solved as a *greatest* fixpoint: its
/// interesting facts are absences ("this register is NOT call-defined"),
/// and absences in a least-fixpoint set need no witness — minimality of
/// the fixpoint is itself the proof that nothing demands the bit.  That
/// is exactly the argument `spike-explain --why-dead` prints (see
/// DESIGN.md §11).
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PROVENANCE_PROVENANCE_H
#define SPIKE_PROVENANCE_PROVENANCE_H

#include <cstdint>

namespace spike {

/// The explainable fact kinds: the three monotone set kinds the PSG
/// solver grows from bottom.
enum class ProvFact : uint8_t {
  MayUse, ///< Phase 1 pass B: register may be read before defined.
  MayDef, ///< Phase 1 pass A: register may be defined.
  Live,   ///< Phase 2: register live at the node's program location.
};

/// Number of explainable fact kinds.
inline constexpr unsigned NumProvFacts = 3;

/// Returns "may-use" / "may-def" / "live".
inline const char *provFactName(ProvFact Fact) {
  switch (Fact) {
  case ProvFact::MayUse:
    return "may-use";
  case ProvFact::MayDef:
    return "may-def";
  case ProvFact::Live:
    return "live";
  }
  return "<unknown>";
}

/// How one (fact, node, register) bit is derived.  Ground kinds
/// terminate a witness chain; step kinds reference one more fact (Ref at
/// Node).
enum class ProvKind : uint8_t {
  None, ///< No derivation found (replay reports the step as broken).

  // --- Ground kinds: the chain ends here. -------------------------------
  EdgeLabel,        ///< A flow-summary edge's own label carries the bit:
                    ///< an instruction USE/DEF on an anchor-free path.
  IndirectCall,     ///< The fixed calling-standard (or annotation) label
                    ///< of an indirect call's call-return edge.
  CallRa,           ///< The call instruction's own definition of ra.
  SeedUnknownCaller,///< Exit seed: routine may return to unknown code
                    ///< (program entry routine or address-taken).
  SeedQuarantine,   ///< Exit seed: reachable from quarantined code, all
                    ///< registers assumed live.
  UnknownBoundary,  ///< Section 3.5 boundary at an unresolved jump.  The
                    ///< solver never evaluates Unknown nodes; replay
                    ///< verifies this kind by recomputing the boundary.

  // --- Step kinds: the chain continues at (Ref, Node). ------------------
  EdgeFlow,    ///< Flows over edge Edge from the same fact at Node (its
               ///< destination), surviving the label's MUST-DEF.
  CallSummary, ///< A direct call-return edge's label carries the bit,
               ///< which the Section 3.4 filter admitted from fact Ref at
               ///< the callee entry node Node.
  ReturnLive,  ///< Exit node: pulled from the Live set of return node
               ///< Node (a call site of this routine).
  IndirectHub, ///< Address-taken exit: pulled from the indirect-call
               ///< accumulator, which the Live set of indirect return
               ///< node Node feeds.
};

/// Returns true if \p Kind terminates a witness chain.
inline bool isGroundKind(ProvKind Kind) {
  switch (Kind) {
  case ProvKind::EdgeLabel:
  case ProvKind::IndirectCall:
  case ProvKind::CallRa:
  case ProvKind::SeedUnknownCaller:
  case ProvKind::SeedQuarantine:
  case ProvKind::UnknownBoundary:
    return true;
  default:
    return false;
  }
}

/// One derivation as a witness step carries it.  Edge, Node and Ref are
/// meaningful per ProvKind (see above); unused fields stay at their
/// defaults so derivations compare bitwise.
struct ProvDerivation {
  /// "No edge" / "no node" sentinel.
  static constexpr uint32_t NoId = 0xffffffffu;

  ProvKind Kind = ProvKind::None;
  ProvFact Ref = ProvFact::MayUse; ///< Referenced fact kind (step kinds).
  uint32_t Edge = NoId;            ///< PSG edge id, when edge-borne.
  uint32_t Node = NoId;            ///< Referenced node id (step kinds).

  bool operator==(const ProvDerivation &) const = default;
};

} // namespace spike

#endif // SPIKE_PROVENANCE_PROVENANCE_H
