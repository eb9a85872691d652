//===- provenance/Provenance.h - Derivation recording ---------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The derivation recorder behind `spike-explain`: for every bit the PSG
/// solver sets — (node, register) of the monotone set kinds MAY-USE,
/// MAY-DEF, and phase-2 Live — the store remembers *which* edge, callee
/// summary, or exit seed first established it.  Walking those records
/// backward reproduces a concrete witness chain ending in a ground fact
/// (an instruction USE on a summarized path, a calling-standard set at an
/// indirect call, a Section 3.5 unknowable boundary, or an exit seed).
///
/// Only the three monotone (least-fixpoint) kinds are recorded.  MUST-DEF
/// is a must problem solved as a *greatest* fixpoint: its interesting
/// facts are absences ("this register is NOT call-defined"), and absences
/// in a least-fixpoint set need no witness — minimality of the fixpoint
/// is itself the proof that nothing demands the bit.  That is exactly the
/// argument `spike-explain --why-dead` prints (see DESIGN.md §11).
///
/// Cost model: the store follows the telemetry layer's opt-in pattern.
/// Disabled, the recorder entry point is `recordProvenance(nullptr, ...)`
/// — a null check and nothing else; no allocation, no branch into the
/// tables (proven at the allocator level by
/// tests/provenance_noalloc_test.cpp and timed by bench_micro).  Enabled,
/// each slot is written at most once (first derivation wins), which both
/// bounds the cost at one table write per set bit and guarantees the
/// recorded chain is acyclic: a bit's justification only references bits
/// that were set strictly earlier.
///
/// Layout: a slot is one four-byte ProvRecord — the kind and a single
/// 28-bit id — so the store is 3 facts x 32 registers x 4 bytes = 384
/// bytes per PSG node.  The rest of a derivation is not stored because
/// the graph determines it: an EdgeFlow step continues at the edge's
/// destination, a CallSummary step at the callee entry its call block
/// names, and the referenced fact kind follows from the record's kind and
/// fact.  buildWitness (Witness.cpp) is the one place that expands a
/// record into a ProvDerivation; replay then re-checks every field.
/// Graphs whose node or edge count does not fit in 28 bits (268 M) are
/// rejected by ProvenanceStore::init.
///
/// Determinism: records are written exclusively by the serial per-SCC
///-group worklists of PsgSolver (each node belongs to exactly one group,
/// and a group's node range is touched by no other task), and the
/// indirect-call accumulator's sources are merged serially at the level
/// joins in group-id order — so the recorded tables, like every other
/// solver output, are bit-identical at any --jobs value.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_PROVENANCE_PROVENANCE_H
#define SPIKE_PROVENANCE_PROVENANCE_H

#include "isa/Registers.h"
#include "support/RegSet.h"

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

namespace spike {

/// The recordable fact kinds: the three monotone set kinds the PSG solver
/// grows from bottom.
enum class ProvFact : uint8_t {
  MayUse, ///< Phase 1 pass B: register may be read before defined.
  MayDef, ///< Phase 1 pass A: register may be defined.
  Live,   ///< Phase 2: register live at the node's program location.
};

/// Number of recordable fact kinds.
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

/// How one recorded bit was first derived.  Ground kinds terminate a
/// witness chain; step kinds reference one earlier fact (Ref at Node).
enum class ProvKind : uint8_t {
  None, ///< Slot never written (fact absent, or store disabled).

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
                    ///< solver never evaluates Unknown nodes, so this
                    ///< kind is synthesized by the witness walker and
                    ///< verified by recomputing the boundary sets.

  // --- Step kinds: the chain continues at (Ref, Node). ------------------
  EdgeFlow,    ///< Flows over edge Edge from the same fact at Node (its
               ///< destination), surviving the label's MUST-DEF.
  CallSummary, ///< A direct call-return edge's label carries the bit,
               ///< which the Section 3.4 filter admitted from fact Ref at
               ///< the callee entry node Node.
  ReturnLive,  ///< Exit node: pulled from the Live set of return node
               ///< Node (a call site of this routine).
  IndirectHub, ///< Address-taken exit: pulled from the indirect-call
               ///< accumulator, whose first contribution of this register
               ///< came from indirect return node Node.
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

/// One derivation as a witness step carries it: how a (fact, node,
/// register) bit was first set.  Edge, Node and Ref are meaningful per
/// ProvKind (see above); unused fields stay at their defaults so
/// derivations compare bitwise.  The store keeps only a ProvRecord;
/// buildWitness expands it back into this form.
struct ProvDerivation {
  /// "No edge" / "no node" sentinel.
  static constexpr uint32_t NoId = 0xffffffffu;

  ProvKind Kind = ProvKind::None;
  ProvFact Ref = ProvFact::MayUse; ///< Referenced fact kind (step kinds).
  uint32_t Edge = NoId;            ///< PSG edge id, when edge-borne.
  uint32_t Node = NoId;            ///< Referenced node id (step kinds).

  bool operator==(const ProvDerivation &) const = default;
};

/// True if a \p Kind record's id is a PSG edge id.
inline bool provIdIsEdge(ProvKind Kind) {
  switch (Kind) {
  case ProvKind::EdgeLabel:
  case ProvKind::IndirectCall:
  case ProvKind::CallRa:
  case ProvKind::EdgeFlow:
  case ProvKind::CallSummary:
    return true;
  default:
    return false;
  }
}

/// True if a \p Kind record's id is a PSG node id.
inline bool provIdIsNode(ProvKind Kind) {
  return Kind == ProvKind::ReturnLive || Kind == ProvKind::IndirectHub;
}

/// One store slot: the ProvKind in the top 4 bits and one 28-bit id in
/// the low bits — an edge id for the edge-borne kinds, a node id for
/// ReturnLive and IndirectHub, unused for the two seeds.  A derivation's
/// other fields are functions of that id and the graph.  The all-zero
/// record is the empty slot (ProvKind::None is 0).
class ProvRecord {
public:
  static constexpr unsigned IdBits = 28;
  /// The widest id; ProvenanceStore::init keeps every node and edge id
  /// below it.
  static constexpr uint32_t IdMask = (uint32_t(1) << IdBits) - 1;
  /// ProvDerivation::NoId in a node-id record.
  static constexpr uint32_t NoId = IdMask;

  constexpr ProvRecord() = default;
  explicit constexpr ProvRecord(ProvKind Kind, uint32_t Id = 0)
      : Bits(uint32_t(Kind) << IdBits | Id) {
    assert(Id <= IdMask && "record id wider than 28 bits");
  }

  ProvKind kind() const { return ProvKind(Bits >> IdBits); }
  uint32_t id() const { return Bits & IdMask; }
  bool empty() const { return Bits == 0; }

  bool operator==(const ProvRecord &) const = default;

private:
  uint32_t Bits = 0;
};
static_assert(sizeof(ProvRecord) == 4, "a store slot is four bytes");
static_assert(unsigned(ProvKind::IndirectHub) < 16, "kinds fit in 4 bits");

/// The whole-program derivation store: one ProvRecord slot per (fact
/// kind, PSG node, integer register), flat and index-computed so
/// recording is a bounds-free array write.  Empty (default-constructed)
/// means disabled.
class ProvenanceStore {
public:
  /// Enables the store for a graph of \p NumNodes nodes and \p NumEdges
  /// edges, clearing any prior contents.  Throws std::length_error, before
  /// allocating, when either count does not fit a record's 28-bit id.
  void init(size_t NumNodes, size_t NumEdges) {
    if (NumNodes > ProvRecord::IdMask || NumEdges > ProvRecord::IdMask)
      throw std::length_error(
          "provenance store: " + std::to_string(NumNodes) + " nodes / " +
          std::to_string(NumEdges) + " edges exceed the 28-bit record id");
    for (std::vector<ProvRecord> &Table : Tables)
      Table.assign(NumNodes * NumIntRegs, ProvRecord());
  }

  /// True once init() ran (recording and lookups are live).
  bool enabled() const { return !Tables[0].empty(); }

  /// Number of nodes the store was sized for (0 when disabled).
  size_t numNodes() const { return Tables[0].size() / NumIntRegs; }

  /// Bytes held by the record tables.
  size_t bytes() const {
    return NumProvFacts * Tables[0].size() * sizeof(ProvRecord);
  }

  /// The writable slot for one bit.  Only valid when enabled.
  ProvRecord &slot(ProvFact Fact, uint32_t NodeId, unsigned Reg) {
    return Tables[unsigned(Fact)][size_t(NodeId) * NumIntRegs + Reg];
  }

  /// The recorded derivation of one bit; empty when the store is
  /// disabled or nothing was recorded.
  ProvRecord lookup(ProvFact Fact, uint32_t NodeId, unsigned Reg) const {
    if (!enabled())
      return ProvRecord();
    return Tables[unsigned(Fact)][size_t(NodeId) * NumIntRegs + Reg];
  }

  bool operator==(const ProvenanceStore &) const = default;

private:
  std::vector<ProvRecord> Tables[NumProvFacts];
};

/// Records \p Rec as the derivation of fact \p Fact for every register
/// of \p Regs at \p NodeId.  First derivation wins: slots already holding
/// a record are left untouched, keeping chains acyclic.  A null \p Store
/// is the disabled path — one branch, no memory touched — so the solver
/// can call this unconditionally.  Returns the number of freshly recorded
/// bits (the provenance.records counter).
inline uint64_t recordProvenance(ProvenanceStore *Store, ProvFact Fact,
                                 uint32_t NodeId, RegSet Regs,
                                 ProvRecord Rec) {
  if (!Store)
    return 0;
  uint64_t Fresh = 0;
  for (unsigned Reg : Regs) {
    ProvRecord &Slot = Store->slot(Fact, NodeId, Reg);
    if (Slot.empty()) {
      Slot = Rec;
      ++Fresh;
    }
  }
  return Fresh;
}

} // namespace spike

#endif // SPIKE_PROVENANCE_PROVENANCE_H
