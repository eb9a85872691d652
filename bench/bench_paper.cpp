//===- bench/bench_paper.cpp - The paper's evaluation in one run ----------===//
//
// Prints every table EXPERIMENTS.md records for Goodwin, PLDI 1997:
// Tables 2-5, Figures 13-15, the design ablations (compact representation,
// branch nodes) and the Section 1 optimization claim.
//
// Each selected profile is generated once and analyzed twice, with and
// without branch nodes; only the numbers each table row needs outlive the
// two results.  One gcc-shaped size sweep feeds Figures 14 and 15 and the
// compact-representation ablation.  Stage seconds are each analysis's
// telemetry spans under the harness session (psg/Analyzer.h).
//
// With --jobs N > 1 the analysis of the largest profile and the optimize
// loop are also timed at jobs 1 and N.  The run exits 1 when either sweep
// or any Section 1 program produces a different result: a parallel engine
// or an optimizer that is fast but wrong would poison every table.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "interproc/CfgTwoPhase.h"
#include "interproc/Supergraph.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "sim/Simulator.h"
#include "support/TablePrinter.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"

#include <algorithm>
#include <numeric>
#include <set>

using namespace spike;

namespace {

double total(const StageSeconds &Seconds) {
  return std::accumulate(Seconds.begin(), Seconds.end(), 0.0);
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

/// Runs analyzeImage under the harness session; \p Seconds receives the
/// run's five stage spans.
AnalysisResult analyze(const Image &Img, StageSeconds &Seconds,
                       bool BranchNodes = true) {
  const telemetry::Session &S = *telemetry::active();
  size_t First = S.spans().size();
  AnalysisOptions AOpts;
  AOpts.Psg.UseBranchNodes = BranchNodes;
  AnalysisResult Result = analyzeImage(Img, CallingConv(), AOpts);
  Seconds = stageSeconds(S, First);
  return Result;
}

/// The size cells Figures 14 and 15 share, then \p Last.
std::vector<std::string> sizePoint(const std::string &Name,
                                   const AnalysisResult &R,
                                   std::string Last) {
  return {Name, TablePrinter::num(uint64_t(R.Prog.Routines.size())),
          TablePrinter::num(R.Prog.numBlocks()),
          TablePrinter::num(uint64_t(R.Prog.Insts.size())), std::move(Last)};
}

/// Times \p Run(lanes) best of three at jobs 1 and \p Jobs under the spans
/// "<Prefix>.jobs_sweep.serial" / ".parallel", publishes the
/// "<Prefix>.jobs*" gauges, and returns the report line.  \p Same is
/// cleared when the two job counts produced different results.
template <typename Fn>
std::string jobsSweep(benchutil::Harness &Bench, const std::string &Prefix,
                      const std::string &What, const char *Compared,
                      unsigned Jobs, bool &Same, Fn Run) {
  auto TimeAt = [&](unsigned Lanes, const char *Kind) {
    decltype(Run(1u)) Out;
    double Best = 1e9;
    for (int Rep = 0; Rep < 3; ++Rep)
      Best = std::min(Best, Bench.timed(Prefix + ".jobs_sweep." + Kind,
                                        [&] { Out = Run(Lanes); }));
    return std::make_pair(Best, std::move(Out));
  };
  auto [Serial, SerialOut] = TimeAt(1, "serial");
  auto [Parallel, ParallelOut] = TimeAt(Jobs, "parallel");
  bool Identical = SerialOut == ParallelOut;
  Same &= Identical;
  double Speedup = Parallel > 0 ? Serial / Parallel : 0;
  telemetry::gaugeSet(Prefix + ".jobs", Jobs);
  telemetry::gaugeSet(Prefix + ".jobs_serial_us", uint64_t(Serial * 1e6));
  telemetry::gaugeSet(Prefix + ".jobs_parallel_us",
                      uint64_t(Parallel * 1e6));
  telemetry::gaugeSet(Prefix + ".jobs_speedup_pct", uint64_t(Speedup * 100));
  char Line[256];
  std::snprintf(Line, sizeof(Line),
                "\njobs sweep (%s): jobs=1 %.4f s, jobs=%u %.4f s, "
                "speedup %.2fx, %s %s\n",
                What.c_str(), Serial, Jobs, Parallel, Speedup, Compared,
                Identical ? "identical" : "DIFFER (BUG)");
  return Line;
}

/// An executable program with the Figure 1 opportunity density of
/// realistic compiled code (most routines contain none of the patterns).
ExecProfile execProfile(unsigned Routines, uint64_t Seed) {
  ExecProfile P;
  P.Routines = Routines;
  P.CallsPerRoutine = 2.2;
  P.DeadCodeProb = 0.25;
  P.ExtraSaveProb = 0.15;
  P.Seed = Seed;
  return P;
}

/// Section 1: "these optimizations consistently provide performance
/// improvements of 5%-10%, and in some cases provide improvements of as
/// much as 20%" — measured as the drop in dynamically executed non-nop
/// instructions, with the simulator checking observable behaviour.
bool runOptimizationClaim(benchutil::Harness &Bench, unsigned Jobs) {
  std::printf("== Optimization benefit (Section 1 claim: 5-10%%, up to "
              "20%%) ==\n");
  TablePrinter Table;
  Table.header({"Program", "Static Insts", "Deleted", "Dyn Insts Before",
                "Dyn Insts After", "Improvement", "Equivalent"});
  bool Ok = true;
  double Sum = 0, Min = 1e9, Max = -1e9;
  const unsigned Count = 12;
  for (uint64_t Seed = 1; Seed <= Count; ++Seed) {
    Image Img = generateExecProgram(execProfile(24, Seed * 1013));
    SimResult Before = simulate(Img);
    Image Optimized = Img;
    PipelineStats Stats = optimizeImage(Optimized);
    SimResult After = simulate(Optimized);
    double Improvement =
        ratio(double(Before.usefulSteps() - After.usefulSteps()),
              double(Before.usefulSteps()));
    Sum += Improvement;
    Min = std::min(Min, Improvement);
    Max = std::max(Max, Improvement);
    bool Equivalent = Before.sameObservable(After);
    Ok &= Equivalent;
    Table.row({"exec-" + std::to_string(Seed),
               TablePrinter::num(uint64_t(Img.Code.size())),
               TablePrinter::num(Stats.totalDeleted()),
               TablePrinter::num(Before.usefulSteps()),
               TablePrinter::num(After.usefulSteps()),
               TablePrinter::percent(Improvement),
               Equivalent ? "yes" : "NO (BUG)"});
  }
  Table.print();
  std::printf("\nmean improvement %.1f%% (min %.1f%%, max %.1f%%)\n",
              100.0 * Sum / Count, 100.0 * Min, 100.0 * Max);

  if (Jobs > 1) {
    ExecProfile P = execProfile(96, 20197);
    Image Img = generateExecProgram(P);
    std::fputs(jobsSweep(Bench, "opt",
                         "exec " + std::to_string(P.Routines) + " routines",
                         "optimized images", Jobs, Ok,
                         [&](unsigned Lanes) {
                           Image Out = Img;
                           PipelineOptions OptOpts;
                           OptOpts.Jobs = Lanes;
                           optimizeImage(Out, CallingConv(), OptOpts);
                           return Out;
                         })
                   .c_str(),
               stdout);
  }
  return Ok;
}

} // namespace

int main(int Argc, char **Argv) {
  benchutil::Options Opts = benchutil::parseOptions(Argc, Argv);
  benchutil::Harness Bench("bench_paper", Opts);
  std::vector<BenchmarkProfile> Profiles = benchutil::selectedProfiles(Opts);
  bool Ok = true;

  // Figure 13 omits the small benchmarks (the paper's timer resolution);
  // the branch ablation shows the three branch-heavy shapes.  --only
  // keeps its one profile in every table.
  const std::set<std::string> Large = {"gcc",      "acad",     "excel",
                                       "maxeda",   "sqlservr", "texim",
                                       "ustation", "vc",       "winword"};
  const std::set<std::string> BranchHeavy = {"sqlservr", "perl", "winword"};
  auto In = [&](const std::set<std::string> &Set, const std::string &Name) {
    return !Opts.Only.empty() || Set.count(Name);
  };

  TablePrinter Table2, Table3, Table4, Table5, Fig13, Fig14, Fig15, Branch;
  Table2.header({"Suite", "Benchmark", "Routines", "Basic Blocks",
                 "Instructions (k)", "Total Dataflow Time (sec.)",
                 "Memory Usage (Mbytes)"});
  Table3.header({"Suite", "Benchmark", "Entrances/Routine", "Exits/Routine",
                 "Calls/Routine", "Branches/Routine", "PSG Nodes/Routine",
                 "PSG Edges/Routine"});
  Table4.header({"Benchmark", "PSG Edge Reduction", "PSG Node Increase"});
  Table5.header({"Suite", "Benchmark", "PSG Nodes (k)", "PSG Edges (k)",
                 "Basic Blocks (k)", "CFG Arcs (k)", "Nodes/Basic Block",
                 "Edges/Arc"});
  Fig13.header({"Benchmark", "CFG Build", "Initialization", "PSG Build",
                "Phase 1", "Phase 2", "Total (sec.)"});
  Fig14.header({"Benchmark", "Routines", "Basic Blocks", "Instructions",
                "Time (sec.)"});
  Fig15.header({"Benchmark", "Routines", "Basic Blocks", "Instructions",
                "Memory (MB)"});
  Branch.header({"Benchmark", "Edges w/", "Edges w/o", "Time w/ (s)",
                 "Time w/o (s)"});

  auto Largest = std::max_element(
      Profiles.begin(), Profiles.end(),
      [](const BenchmarkProfile &A, const BenchmarkProfile &B) {
        return A.Routines < B.Routines;
      });
  std::string AnalyzeSweep;
  double SumNodeRatio = 0, SumEdgeRatio = 0;

  for (const BenchmarkProfile &Profile : Profiles) {
    Image Img = generateCfgProgram(Profile);
    const std::string &Name = Profile.Name;
    {
      StageSeconds WithSec, WithoutSec;
      AnalysisResult With = analyze(Img, WithSec);
      AnalysisResult Without = analyze(Img, WithoutSec, false);
      const Program &Prog = With.Prog;
      double N = double(Prog.Routines.size());
      double Blocks = double(Prog.numBlocks());
      double Nodes = double(With.Psg.Nodes.size());
      double Edges = double(With.Psg.Edges.size());
      double Arcs = double(buildSupergraph(Prog).numArcs());

      Table2.row({Profile.Suite, Name,
                  TablePrinter::num(uint64_t(Prog.Routines.size())),
                  TablePrinter::num(Prog.numBlocks()),
                  TablePrinter::num(double(Prog.Insts.size()) / 1000.0, 1),
                  TablePrinter::num(total(WithSec), 3),
                  TablePrinter::num(With.Memory.peakMBytes(), 2)});

      double Entrances = 0, Exits = 0, Calls = 0, Branches = 0;
      for (const Routine &R : Prog.Routines) {
        Entrances += R.numEntries();
        Exits += R.ExitBlocks.size();
        Calls += R.CallBlocks.size();
        Branches += R.NumBranches;
      }
      Table3.row({Profile.Suite, Name, TablePrinter::num(Entrances / N, 2),
                  TablePrinter::num(Exits / N, 2),
                  TablePrinter::num(Calls / N, 2),
                  TablePrinter::num(Branches / N, 2),
                  TablePrinter::num(Nodes / N, 2),
                  TablePrinter::num(Edges / N, 2)});

      double EdgesWo = double(Without.Psg.Edges.size());
      double NodesWo = double(Without.Psg.Nodes.size());
      Table4.row({Name, TablePrinter::percent(ratio(EdgesWo - Edges, EdgesWo)),
                  TablePrinter::percent(ratio(Nodes - NodesWo, NodesWo))});

      SumNodeRatio += Nodes / Blocks;
      SumEdgeRatio += Edges / Arcs;
      Table5.row({Profile.Suite, Name, TablePrinter::num(Nodes / 1000.0, 2),
                  TablePrinter::num(Edges / 1000.0, 2),
                  TablePrinter::num(Blocks / 1000.0, 2),
                  TablePrinter::num(Arcs / 1000.0, 2),
                  TablePrinter::num(Nodes / Blocks, 2),
                  TablePrinter::num(Edges / Arcs, 2)});

      if (In(Large, Name)) {
        std::vector<std::string> Row = {Name};
        for (double Seconds : WithSec)
          Row.push_back(TablePrinter::percent(ratio(Seconds, total(WithSec))));
        Row.push_back(TablePrinter::num(total(WithSec), 3));
        Fig13.row(std::move(Row));
      }
      Fig14.row(sizePoint(Name, With, TablePrinter::num(total(WithSec), 4)));
      Fig15.row(sizePoint(Name, With,
                          TablePrinter::num(With.Memory.peakMBytes(), 3)));
      if (In(BranchHeavy, Name))
        Branch.row({Name, TablePrinter::num(uint64_t(Edges)),
                    TablePrinter::num(uint64_t(EdgesWo)),
                    TablePrinter::num(total(WithSec), 4),
                    TablePrinter::num(total(WithoutSec), 4)});
    }
    if (Opts.Jobs > 1 && &Profile == &*Largest)
      AnalyzeSweep = jobsSweep(Bench, "table4", Name, "summaries", Opts.Jobs,
                               Ok, [&](unsigned Lanes) {
                                 AnalysisOptions AOpts;
                                 AOpts.Jobs = Lanes;
                                 return analyzeImage(Img, CallingConv(),
                                                     AOpts)
                                     .Summaries;
                               });
  }

  // The gcc-shaped size sweep; its three smallest points also price the
  // CFG-level analyses the PSG replaces.
  TablePrinter Fig14Sweep, Fig15Sweep, Compact;
  Fig14Sweep.header({"Sweep", "Routines", "Basic Blocks", "Instructions",
                     "Time (sec.)"});
  Fig15Sweep.header({"Sweep", "Routines", "Basic Blocks", "Instructions",
                     "Memory (MB)"});
  Compact.header({"Routines", "Blocks", "PSG total (s)", "CFG two-phase (s)",
                  "Supergraph liveness (s)", "PSG speedup vs reference"});
  if (Opts.Only.empty()) {
    for (double Scale : {0.25, 0.5, 1.0, 2.0, 4.0}) {
      BenchmarkProfile P = scaledProfile(*findProfile("gcc"),
                                         Scale * Opts.Scale);
      StageSeconds Seconds;
      AnalysisResult R = analyze(generateCfgProgram(P), Seconds);
      double Psg = total(Seconds);
      Fig14Sweep.row(sizePoint(P.Name, R, TablePrinter::num(Psg, 4)));
      Fig15Sweep.row(
          sizePoint(P.Name, R, TablePrinter::num(R.Memory.peakMBytes(), 3)));
      if (Scale > 1.0)
        continue;
      double Ref = Bench.timed("ablation.cfg_two_phase", [&] {
        runCfgTwoPhase(R.Prog, R.SavedPerRoutine);
      });
      double Super = Bench.timed("ablation.supergraph", [&] {
        solveSupergraphLiveness(R.Prog, buildSupergraph(R.Prog));
      });
      Compact.row({TablePrinter::num(uint64_t(R.Prog.Routines.size())),
                   TablePrinter::num(R.Prog.numBlocks()),
                   TablePrinter::num(Psg, 4), TablePrinter::num(Ref, 4),
                   TablePrinter::num(Super, 4),
                   TablePrinter::num(ratio(Ref, Psg), 2) + "x"});
    }
  }

  auto Section = [&](const char *Title) {
    std::printf("\n");
    benchutil::banner(Title, Opts);
  };
  benchutil::banner("Table 2: benchmark size, dataflow time, memory", Opts);
  Table2.print();
  Section("Table 3: per-routine characteristics");
  Table3.print();
  Section("Table 4: branch-node edge reduction");
  Table4.print();
  std::fputs(AnalyzeSweep.c_str(), stdout);
  Section("Table 5: PSG size vs whole-program CFG size");
  Table5.print();
  if (!Profiles.empty())
    std::printf("\naverage nodes/block %.2f, average edges/arc %.2f\n",
                SumNodeRatio / Profiles.size(),
                SumEdgeRatio / Profiles.size());
  Section("Figure 13: fraction of time per analysis stage");
  Fig13.print();
  auto Figure = [&](const char *Title, const TablePrinter &Scatter,
                    const TablePrinter &Sweep) {
    Section(Title);
    std::printf("\n-- per-benchmark points --\n");
    Scatter.print();
    if (Opts.Only.empty()) {
      std::printf("\n-- gcc-shaped size sweep (near-linear expected) --\n");
      Sweep.print();
    }
  };
  Figure("Figure 14: analysis time vs routines / blocks / instructions",
         Fig14, Fig14Sweep);
  Figure("Figure 15: analysis memory vs routines / blocks / instructions",
         Fig15, Fig15Sweep);
  Section("Ablation: PSG vs CFG-level analyses; branch nodes");
  if (Opts.Only.empty()) {
    std::printf("\n-- compact representation payoff (gcc-shaped) --\n");
    Compact.print();
  }
  std::printf("\n-- branch-node ablation (Section 3.6) --\n");
  Branch.print();

  std::printf("\n");
  Ok &= runOptimizationClaim(Bench, Opts.Jobs);
  return Ok ? 0 : 1;
}
