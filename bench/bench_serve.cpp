//===- bench/bench_serve.cpp - Incremental re-analysis vs full re-solve ----===//
//
// The serving layer's economics: after a same-length routine patch, how
// much cheaper is reanalyzeIncremental (rebuild the patched routine in
// place, keep clean SCC groups, re-run the dirty frontier) than the full
// solve spike-serve would otherwise repeat per `patch-routine`?  One row
// per benchmark, dominated by the largest synthetic profile; each row
// averages a burst of randomized within-routine patches, the same
// mutation model the serve fuzz arm and the differential oracle tests
// use, each after a no-change save of the routine it patches.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "interproc/Incremental.h"
#include "psg/Analyzer.h"
#include "support/Rng.h"
#include "support/ThreadPool.h"
#include "support/TablePrinter.h"
#include "synth/CfgGenerator.h"

#include <optional>

using namespace spike;

namespace {

/// Picks a named routine wide enough to shuffle and returns its index
/// and its words with one word copied over another — decodable,
/// control-flow-changing, partition-preserving.
std::optional<std::pair<uint32_t, std::vector<uint64_t>>>
oneWordEdit(const Program &Prog, const Image &Img, Rng &Rand) {
  std::vector<uint32_t> Candidates;
  for (uint32_t R = 0; R < Prog.Routines.size(); ++R)
    if (!Prog.Routines[R].Name.empty() &&
        Prog.Routines[R].End - Prog.Routines[R].Begin >= 4)
      Candidates.push_back(R);
  if (Candidates.empty())
    return std::nullopt;
  uint32_t R = Candidates[Rand.below(Candidates.size())];
  const Routine &Rt = Prog.Routines[R];
  std::vector<uint64_t> Words(Img.Code.begin() + Rt.Begin,
                              Img.Code.begin() + Rt.End);
  uint64_t Dst = Rand.below(Words.size());
  uint64_t Src = Rand.below(Words.size());
  Words[Dst] = Words[Src];
  return std::pair(R, std::move(Words));
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
    ThreadPool Pool(Opts.Jobs);

    Rng Rand(0x5e71e + Profile->Routines);
    double FullSeconds = 0, NoopSeconds = 0, EditSeconds = 0;
    uint64_t Phase1Dirty = 0, Phase2Dirty = 0, FullFallbacks = 0;
    for (unsigned I = 0; I < PatchesPerRow; ++I) {
      auto Edit = oneWordEdit(Resident.Prog, Img, Rand);
      if (!Edit)
        break;
      const Routine &Rt = Resident.Prog.Routines[Edit->first];
      // The no-change save: the routine's own words back.
      std::vector<uint64_t> Same(Img.Code.begin() + Rt.Begin,
                                 Img.Code.begin() + Rt.End);
      NoopSeconds += Bench.timed("serve.incremental_noop", [&] {
        IncrementalOutcome Out =
            reanalyzeIncremental(Img, Edit->first, Same, AO, Resident, Pool);
        (void)Out;
      });

      // The edit: from scratch on a patched copy, then in place.
      Image Patched = Img;
      std::copy(Edit->second.begin(), Edit->second.end(),
                Patched.Code.begin() + Rt.Begin);
      FullSeconds += Bench.timed("serve.full_resolve", [&] {
        AnalysisResult Fresh = analyzeImage(Patched, CallingConv(), AO);
        (void)Fresh;
      });
      IncrementalOutcome Out;
      EditSeconds += Bench.timed("serve.incremental_edit", [&] {
        Out = reanalyzeIncremental(Img, Edit->first, Edit->second, AO,
                                   Resident, Pool);
      });
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
