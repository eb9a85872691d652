//===- bench/bench_serve.cpp - Incremental re-analysis vs full re-solve ----===//
//
// The serving layer's economics: after a same-length routine patch, how
// much cheaper is reanalyzeIncremental (restore clean SCC groups, re-run
// the dirty frontier) than the full solve spike-serve would otherwise
// repeat per `patch-routine`?  One row per benchmark, dominated by the
// largest synthetic profile; each row averages a burst of randomized
// within-routine patches, the same mutation model the serve fuzz arm and
// the differential oracle tests use.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "interproc/Incremental.h"
#include "psg/Analyzer.h"
#include "support/Rng.h"
#include "support/TablePrinter.h"
#include "synth/CfgGenerator.h"

using namespace spike;

namespace {

/// Picks a named routine wide enough to shuffle and copies \p Edits
/// words within it — decodable, control-flow-changing,
/// partition-preserving.  Edits == 0 models the no-change save a client
/// sends when re-publishing an unmodified routine.
const Routine *mutateOneRoutine(const Program &Prog, Image &Img,
                                unsigned Edits, Rng &Rand) {
  std::vector<const Routine *> Candidates;
  for (const Routine &Rt : Prog.Routines)
    if (!Rt.Name.empty() && Rt.End - Rt.Begin >= 4)
      Candidates.push_back(&Rt);
  if (Candidates.empty())
    return nullptr;
  const Routine *Rt = Candidates[Rand.below(Candidates.size())];
  uint64_t Span = Rt->End - Rt->Begin;
  for (unsigned E = 0; E < Edits; ++E) {
    uint64_t Dst = Rt->Begin + Rand.below(Span);
    uint64_t Src = Rt->Begin + Rand.below(Span);
    Img.Code[Dst] = Img.Code[Src];
  }
  return Rt;
}

} // namespace

int main(int Argc, char **Argv) {
  benchutil::Options Opts = benchutil::parseOptions(Argc, Argv);
  benchutil::Harness Bench("bench_serve", Opts);
  benchutil::banner("Serving: incremental re-analysis vs full re-solve",
                    Opts);

  // The largest profile carries the headline row; two mid-size profiles
  // show how the gap scales down.
  std::vector<const BenchmarkProfile *> Subjects;
  const BenchmarkProfile *Largest = nullptr;
  for (const BenchmarkProfile &P : paperProfiles())
    if (!Largest || P.Routines > Largest->Routines)
      Largest = &P;
  for (const char *Name : {"compress", "gcc"})
    if (const BenchmarkProfile *P = findProfile(Name))
      if (P != Largest)
        Subjects.push_back(P);
  Subjects.push_back(Largest);

  constexpr unsigned PatchesPerRow = 6;

  TablePrinter Table;
  Table.header({"Benchmark", "Routines", "Full (s/patch)",
                "Incr no-op (s)", "Speedup", "Incr 1-word (s)", "Speedup",
                "Dirty p1/p2 (avg)"});
  for (const BenchmarkProfile *Profile : Subjects) {
    if (!Opts.Only.empty() && Opts.Only != Profile->Name)
      continue;
    BenchmarkProfile P = Opts.Scale == 1.0
                             ? *Profile
                             : scaledProfile(*Profile, Opts.Scale);
    Image Img = generateCfgProgram(P);

    AnalysisOptions AO;
    AO.Jobs = Opts.Jobs;
    AnalysisResult Resident = analyzeImage(Img, CallingConv(), AO);

    Rng Rand(0x5e71e + Profile->Routines);
    double FullSeconds = 0, NoopSeconds = 0, EditSeconds = 0;
    uint64_t Phase1Dirty = 0, Phase2Dirty = 0, FullFallbacks = 0;
    for (unsigned I = 0; I < PatchesPerRow; ++I) {
      // The no-change save: same image back, struct diff finds nothing.
      NoopSeconds += Bench.timed("serve.incremental_noop", [&] {
        IncrementalOutcome Out =
            reanalyzeIncremental(Img, CallingConv(), AO, Resident);
        (void)Out;
      });

      // A one-word edit, then incremental vs from-scratch on the same
      // patched image.  The edit goes to a copy: Resident borrows Img's
      // words, and the diff compares them with the patched ones.
      Image Patched = Img;
      if (!mutateOneRoutine(Resident.Prog, Patched, /*Edits=*/1, Rand))
        break;
      FullSeconds += Bench.timed("serve.full_resolve", [&] {
        AnalysisResult Fresh = analyzeImage(Patched, CallingConv(), AO);
        (void)Fresh;
      });
      IncrementalOutcome Out;
      EditSeconds += Bench.timed("serve.incremental_edit", [&] {
        Out = reanalyzeIncremental(Patched, CallingConv(), AO, Resident);
      });
      // Retire the old words the way a server does: Resident (kept as
      // is by an all-clean patch) re-points at the patched image.
      Img = std::move(Patched);
      Resident.Prog.Code = Img.Code;
      Phase1Dirty += Out.Phase1Dirty;
      Phase2Dirty += Out.Phase2Dirty;
      FullFallbacks += Out.Full;
    }

    double FullPer = FullSeconds / PatchesPerRow;
    double NoopPer = NoopSeconds / PatchesPerRow;
    double EditPer = EditSeconds / PatchesPerRow;
    std::string Dirty =
        TablePrinter::num(double(Phase1Dirty) / PatchesPerRow, 1) + "/" +
        TablePrinter::num(double(Phase2Dirty) / PatchesPerRow, 1);
    if (FullFallbacks)
      Dirty += " (+" + TablePrinter::num(FullFallbacks) + " full)";
    Table.row({Profile->Name,
               TablePrinter::num(uint64_t(Resident.Prog.Routines.size())),
               TablePrinter::num(FullPer, 4), TablePrinter::num(NoopPer, 4),
               TablePrinter::num(NoopPer > 0 ? FullPer / NoopPer : 0, 2) +
                   "x",
               TablePrinter::num(EditPer, 4),
               TablePrinter::num(EditPer > 0 ? FullPer / EditPer : 0, 2) +
                   "x",
               Dirty});
  }
  std::printf("\n-- per-patch cost: resident incremental vs from-scratch --\n");
  Table.print();
  return 0;
}
