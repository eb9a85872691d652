//===- psg/DotExport.cpp - Graphviz export of analysis graphs -------------===//

#include "psg/DotExport.h"

#include <sstream>

using namespace spike;

namespace {

/// Escapes a string for a dot label.  Routine names come straight from
/// image symbol tables, which may contain anything: quotes and
/// backslashes would end the label early, and angle brackets / braces /
/// pipes are structure characters inside record labels, so all of them
/// are backslash-escaped.  Newlines become the dot line break "\n";
/// remaining control characters (never printable in a label) become
/// spaces.
std::string escape(const std::string &Text) {
  std::string Out;
  for (char C : Text) {
    switch (C) {
    case '"':
    case '\\':
    case '<':
    case '>':
    case '|':
    case '{':
    case '}':
      Out += '\\';
      Out += C;
      break;
    case '\n':
      Out += "\\n";
      break;
    default:
      if (static_cast<unsigned char>(C) < 0x20)
        Out += ' ';
      else
        Out += C;
    }
  }
  return Out;
}

const char *terminatorName(TerminatorKind Kind) {
  switch (Kind) {
  case TerminatorKind::FallThrough:
    return "fallthrough";
  case TerminatorKind::Branch:
    return "br";
  case TerminatorKind::CondBranch:
    return "cond-br";
  case TerminatorKind::Call:
    return "call";
  case TerminatorKind::IndirectCall:
    return "indirect-call";
  case TerminatorKind::Return:
    return "ret";
  case TerminatorKind::TableJump:
    return "jmp-tab";
  case TerminatorKind::UnresolvedJump:
    return "jmp-r";
  case TerminatorKind::Halt:
    return "halt";
  }
  return "?";
}

} // namespace

std::string spike::cfgToDot(const Program &Prog, uint32_t RoutineIndex) {
  const Routine &R = Prog.Routines[RoutineIndex];
  std::ostringstream OS;
  OS << "digraph \"cfg_" << escape(R.Name) << "\" {\n"
     << "  node [shape=box, fontname=\"monospace\"];\n";
  for (uint32_t BlockIndex = 0; BlockIndex < R.Blocks.size();
       ++BlockIndex) {
    const BasicBlock &Block = R.Blocks[BlockIndex];
    OS << "  b" << BlockIndex << " [label=\"B" << BlockIndex << " ["
       << Block.Begin << "," << Block.End << ") " << terminatorName(Block.Term)
       << "\\nDEF " << escape(Block.Def.str()) << "\\nUBD "
       << escape(Block.Ubd.str()) << "\"];\n";
    for (uint32_t Succ : R.succs(BlockIndex))
      OS << "  b" << BlockIndex << " -> b" << Succ << ";\n";
  }
  for (size_t E = 0; E < R.EntryBlocks.size(); ++E)
    OS << "  entry" << E << " [shape=plaintext, label=\"entry " << E
       << "\"];\n  entry" << E << " -> b" << R.EntryBlocks[E] << ";\n";
  OS << "}\n";
  return OS.str();
}

std::string spike::psgToDot(const Program &Prog,
                            const ProgramSummaryGraph &Psg,
                            uint32_t RoutineIndex) {
  const Routine &R = Prog.Routines[RoutineIndex];
  std::ostringstream OS;
  OS << "digraph \"psg_" << escape(R.Name) << "\" {\n"
     << "  node [fontname=\"monospace\"];\n";
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
    const PsgNode &Node = Psg.Nodes[NodeId];
    if (Node.RoutineIndex != RoutineIndex)
      continue;
    const char *Shape = "ellipse";
    switch (Node.Kind) {
    case PsgNodeKind::Entry:
      Shape = "invtriangle";
      break;
    case PsgNodeKind::Exit:
      Shape = "triangle";
      break;
    case PsgNodeKind::Branch:
      Shape = "diamond";
      break;
    default:
      break;
    }
    OS << "  n" << NodeId << " [shape=" << Shape << ", label=\""
       << psgNodeKindName(Node.Kind) << " b" << Node.BlockIndex << "\"];\n";
  }
  for (const PsgEdge &Edge : Psg.Edges) {
    if (Psg.Nodes[Edge.Src].RoutineIndex != RoutineIndex)
      continue;
    OS << "  n" << Edge.Src << " -> n" << Edge.Dst << " [";
    if (Edge.IsCallReturn)
      OS << "style=dashed, ";
    OS << "label=\"U " << escape(Edge.Label.MayUse.str()) << "\\nD "
       << escape(Edge.Label.MayDef.str()) << "\\nM "
       << escape(Edge.Label.MustDef.str()) << "\"];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string spike::psgPathToDot(const Program &Prog,
                                const ProgramSummaryGraph &Psg,
                                const DotHighlight &Highlight) {
  std::vector<bool> HotNode(Psg.Nodes.size(), false);
  for (uint32_t NodeId : Highlight.Nodes)
    if (NodeId < Psg.Nodes.size())
      HotNode[NodeId] = true;
  std::vector<bool> HotEdge(Psg.Edges.size(), false);
  for (uint32_t EdgeId : Highlight.Edges)
    if (EdgeId < Psg.Edges.size())
      HotEdge[EdgeId] = true;

  // Every routine the path touches gets its full PSG as a cluster, so
  // the highlighted chain is visible in context.
  std::vector<bool> InRoutine(Prog.Routines.size(), false);
  for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId)
    if (HotNode[NodeId])
      InRoutine[Psg.Nodes[NodeId].RoutineIndex] = true;
  for (uint32_t EdgeId = 0; EdgeId < Psg.Edges.size(); ++EdgeId)
    if (HotEdge[EdgeId]) {
      InRoutine[Psg.Nodes[Psg.Edges[EdgeId].Src].RoutineIndex] = true;
      InRoutine[Psg.Nodes[Psg.Edges[EdgeId].Dst].RoutineIndex] = true;
    }

  std::ostringstream OS;
  OS << "digraph witness {\n  node [fontname=\"monospace\"];\n";
  for (uint32_t RoutineIndex = 0; RoutineIndex < Prog.Routines.size();
       ++RoutineIndex) {
    if (!InRoutine[RoutineIndex])
      continue;
    OS << "  subgraph \"cluster_r" << RoutineIndex << "\" {\n"
       << "    label=\"" << escape(Prog.Routines[RoutineIndex].Name)
       << "\";\n";
    for (uint32_t NodeId = 0; NodeId < Psg.Nodes.size(); ++NodeId) {
      const PsgNode &Node = Psg.Nodes[NodeId];
      if (Node.RoutineIndex != RoutineIndex)
        continue;
      OS << "    n" << NodeId << " [label=\"" << psgNodeKindName(Node.Kind)
         << " b" << Node.BlockIndex << "\"";
      if (HotNode[NodeId])
        OS << ", color=red, penwidth=2";
      OS << "];\n";
    }
    OS << "  }\n";
  }
  for (uint32_t EdgeId = 0; EdgeId < Psg.Edges.size(); ++EdgeId) {
    const PsgEdge &Edge = Psg.Edges[EdgeId];
    if (!InRoutine[Psg.Nodes[Edge.Src].RoutineIndex] ||
        !InRoutine[Psg.Nodes[Edge.Dst].RoutineIndex])
      continue;
    OS << "  n" << Edge.Src << " -> n" << Edge.Dst << " [";
    if (Edge.IsCallReturn)
      OS << "style=dashed, ";
    if (HotEdge[EdgeId])
      OS << "color=red, penwidth=2, ";
    OS << "label=\"U " << escape(Edge.Label.MayUse.str()) << "\\nD "
       << escape(Edge.Label.MayDef.str()) << "\\nM "
       << escape(Edge.Label.MustDef.str()) << "\"];\n";
  }
  OS << "}\n";
  return OS.str();
}

std::string spike::callGraphToDot(const Program &Prog,
                                  const CallGraph &Graph) {
  std::ostringstream OS;
  OS << "digraph callgraph {\n  node [shape=box];\n";
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R) {
    OS << "  r" << R << " [label=\"" << escape(Prog.Routines[R].Name)
       << "\"";
    if (Graph.InCycle[R])
      OS << ", color=red";
    if (!Graph.Reachable[R])
      OS << ", style=dotted";
    OS << "];\n";
    for (uint32_t Callee : Graph.Callees[R])
      OS << "  r" << R << " -> r" << Callee << ";\n";
    if (Graph.HasIndirectCalls[R])
      OS << "  r" << R << " -> indirect [style=dashed];\n";
  }
  OS << "}\n";
  return OS.str();
}
