//===- tests/budget_test.cpp - resource governance & fault tolerance ------===//
//
// The robustness contract of the resource-governed pipeline: every budget
// and every injected fault ends in a structured Status error or a sound
// degraded result — never a wedge, a crash, or a wrong answer.
//
// Layers of evidence:
//   - 20-profile differential: every profile analyzed under an iteration
//     cap (the deterministic trigger) degrades soundly — summaries only
//     widen — and the degraded result is bit-identical at jobs 1/2/4/7,
//   - absurd budgets: configurations too small for even a fully degraded
//     run exit with a structured budget error, never an exception,
//   - nop-differential: spike-opt under a blown budget still produces an
//     image with unchanged observable behaviour,
//   - ThreadPool hardening: a throwing task wedges no siblings, leaks no
//     queued indices, and the rethrow is deterministic (lowest index),
//   - fault injection: each --inject-fault seam yields its documented
//     structured outcome,
//   - RunReport: degradation records round-trip through JSON and ANY
//     growth — zero baseline included — is flagged as a regression.
//
//===----------------------------------------------------------------------===//

#include "lint/Linter.h"
#include "opt/Pipeline.h"
#include "psg/Analyzer.h"
#include "sim/Simulator.h"
#include "support/Budget.h"
#include "support/FaultInjection.h"
#include "support/ThreadPool.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"
#include "telemetry/RunReport.h"
#include "telemetry/Telemetry.h"
#include "DifferentialCorpus.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <string>
#include <vector>

using namespace spike;

namespace {

/// Degradation may only widen the may/live sets of routines that are not
/// themselves degraded (their own summaries are worst-case by
/// construction).
void expectMonotone(const AnalysisResult &Exact,
                    const AnalysisResult &Degraded,
                    const std::string &Where) {
  ASSERT_EQ(Exact.Prog.Routines.size(), Degraded.Prog.Routines.size())
      << Where;
  for (uint32_t R = 0; R < Exact.Prog.Routines.size(); ++R) {
    if (Degraded.Prog.Routines[R].Quarantined)
      continue;
    const RoutineResults &E = Exact.Summaries.Routines[R];
    const RoutineResults &D = Degraded.Summaries.Routines[R];
    const std::string At =
        Where + " routine=" + Exact.Prog.Routines[R].Name;
    for (uint32_t Entry = 0; Entry < E.EntrySummaries.size(); ++Entry) {
      EXPECT_TRUE(D.EntrySummaries[Entry].Used.containsAll(
          E.EntrySummaries[Entry].Used))
          << At << " call-used shrank";
      EXPECT_TRUE(D.EntrySummaries[Entry].Killed.containsAll(
          E.EntrySummaries[Entry].Killed))
          << At << " call-killed shrank";
      EXPECT_TRUE(D.LiveAtEntry[Entry].containsAll(E.LiveAtEntry[Entry]))
          << At << " live-at-entry shrank";
    }
    for (uint32_t Exit = 0; Exit < E.LiveAtExit.size(); ++Exit)
      EXPECT_TRUE(D.LiveAtExit[Exit].containsAll(E.LiveAtExit[Exit]))
          << At << " live-at-exit shrank";
  }
}

} // namespace

//===----------------------------------------------------------------------===//
// 20-profile differential: sound degradation, deterministic across jobs
//===----------------------------------------------------------------------===//

TEST(BudgetDifferential, IterationCapDegradesSoundlyOnAllProfiles) {
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  ASSERT_EQ(Corpus.size(), 20u);

  BudgetOptions Budget;
  Budget.MaxIterations = 1; // Blows on every group needing a second pop.
  unsigned ProfilesDegraded = 0;
  for (const auto &[Name, Img] : Corpus) {
    AnalysisOptions Opts;
    AnalysisResult Exact = analyzeImage(Img, CallingConv(), Opts);

    Expected<GovernedAnalysis> Governed =
        analyzeImageGoverned(Img, CallingConv(), Opts, Budget);
    if (!Governed) {
      // A cap of one pop can be unsatisfiable even with every routine
      // degraded; the structured error is the other legal arm.
      EXPECT_EQ(Governed.error().Code, ErrCode::BudgetUnsatisfiable)
          << Name << ": " << Governed.error().str();
      ++ProfilesDegraded;
      continue;
    }
    for (const std::string &Degraded : Governed->DegradedRoutines) {
      bool Found = false;
      for (const Routine &R : Governed->Result.Prog.Routines)
        if (R.Name == Degraded) {
          Found = true;
          EXPECT_TRUE(R.Quarantined) << Name << " " << Degraded;
          EXPECT_EQ(R.Degrade, DegradeReason::Budget)
              << Name << " " << Degraded;
        }
      EXPECT_TRUE(Found) << Name << ": degraded routine '" << Degraded
                         << "' missing from program";
    }
    ProfilesDegraded += !Governed->DegradedRoutines.empty();
    expectMonotone(Exact, Governed->Result, Name);
  }
  // The cap of one pop must actually bite somewhere, or this test is a
  // no-op.
  EXPECT_GE(ProfilesDegraded, 15u);
}

TEST(BudgetDifferential, NamedDegradeQuarantinesExactlyTheNamedRoutines) {
  // The degrade-everything escalation passes every primary name; unknown
  // and repeated names must be harmless, and a forced quarantine keeps
  // its reason.
  Image Img = generateCfgProgram(
      scaledProfile(*findProfile("gcc"), 120.0 / findProfile("gcc")->Routines));
  std::vector<std::string> All = primaryRoutineNames(Img);
  ASSERT_GT(All.size(), 4u);
  std::vector<std::string> Half;
  for (size_t I = 0; I < All.size(); I += 2)
    Half.push_back(All[I]);
  for (const std::vector<std::string> *Named : {&All, &Half}) {
    CfgBuildOptions Opts;
    Opts.ForceQuarantine = {All[2]};
    Opts.BudgetDegrade = *Named;
    Opts.BudgetDegrade.push_back("no-such-routine");
    Opts.BudgetDegrade.push_back(All[0]);
    Opts.BudgetDegrade.push_back(All[2]);
    Program Prog = buildProgram(Img, CallingConv(), nullptr, Opts);
    for (const Routine &R : Prog.Routines) {
      bool IsNamed =
          std::find(Named->begin(), Named->end(), R.Name) != Named->end();
      DegradeReason Want = R.Name == All[2] ? DegradeReason::Forced
                           : IsNamed        ? DegradeReason::Budget
                                            : DegradeReason::None;
      EXPECT_EQ(R.Degrade, Want) << R.Name;
      EXPECT_EQ(R.Quarantined, Want != DegradeReason::None) << R.Name;
    }
  }
}

TEST(BudgetDifferential, IterationCapBitIdenticalAcrossJobCounts) {
  // The iteration cap counts worklist pops per SCC group, which the
  // scheduler makes identical at every lane count — so WHICH routines
  // degrade, and every resulting summary bit, must match jobs=1 exactly.
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  BudgetOptions Budget;
  Budget.MaxIterations = 2;

  for (const auto &[Name, Img] : Corpus) {
    AnalysisOptions Opts;
    Opts.Jobs = 1;
    Expected<GovernedAnalysis> Serial =
        analyzeImageGoverned(Img, CallingConv(), Opts, Budget);
    ASSERT_TRUE(bool(Serial)) << Name;

    for (unsigned Jobs : {2u, 4u, 7u}) {
      const std::string Where = Name + " jobs=" + std::to_string(Jobs);
      Opts.Jobs = Jobs;
      Expected<GovernedAnalysis> Parallel =
          analyzeImageGoverned(Img, CallingConv(), Opts, Budget);
      ASSERT_TRUE(bool(Parallel)) << Where;
      EXPECT_EQ(Serial->DegradedRoutines, Parallel->DegradedRoutines)
          << Where << ": degraded set depends on --jobs";
      EXPECT_EQ(Serial->Attempts, Parallel->Attempts) << Where;
      ASSERT_EQ(Serial->Result.Summaries.Routines.size(),
                Parallel->Result.Summaries.Routines.size())
          << Where;
      for (size_t R = 0; R < Serial->Result.Summaries.Routines.size();
           ++R) {
        const RoutineResults &S = Serial->Result.Summaries.Routines[R];
        const RoutineResults &P = Parallel->Result.Summaries.Routines[R];
        for (size_t E = 0; E < S.EntrySummaries.size(); ++E) {
          EXPECT_EQ(S.EntrySummaries[E].Used, P.EntrySummaries[E].Used)
              << Where;
          EXPECT_EQ(S.EntrySummaries[E].Defined,
                    P.EntrySummaries[E].Defined)
              << Where;
          EXPECT_EQ(S.EntrySummaries[E].Killed, P.EntrySummaries[E].Killed)
              << Where;
          EXPECT_EQ(S.LiveAtEntry[E], P.LiveAtEntry[E]) << Where;
        }
        for (size_t X = 0; X < S.LiveAtExit.size(); ++X)
          EXPECT_EQ(S.LiveAtExit[X], P.LiveAtExit[X]) << Where;
      }
    }
  }
}

TEST(BudgetDifferential, AbsurdBudgetsAreStructuredErrorOrSoundResult) {
  // Budgets far too small for even a fully degraded run must exit with a
  // structured budget error; budgets that fit after degradation must
  // produce a sound result.  Either way: no exception escapes.
  std::vector<std::pair<std::string, Image>> Corpus =
      testcorpus::differentialCorpus();
  std::vector<BudgetOptions> Configs;
  {
    BudgetOptions B;
    B.MaxIterations = 1;
    Configs.push_back(B);
    B.MaxIterations = 0;
    B.MemBudgetMB = 1; // Tiny but may fit small profiles: both arms legal.
    Configs.push_back(B);
    B.MaxIterations = 1;
    B.DeadlineMs = 1;
    Configs.push_back(B);
    B.MaxAttempts = 1; // Degrade-everything on the first blow.
    Configs.push_back(B);
  }

  for (size_t C = 0; C < Configs.size(); ++C)
    for (size_t I = 0; I < Corpus.size(); I += 3) {
      const std::string Where = Corpus[I].first +
                                " config=" + std::to_string(C);
      Expected<GovernedAnalysis> Governed = analyzeImageGoverned(
          Corpus[I].second, CallingConv(), {}, Configs[C]);
      if (!Governed) {
        ErrCode Code = Governed.error().Code;
        EXPECT_TRUE(Code == ErrCode::DeadlineExpired ||
                    Code == ErrCode::MemBudgetExceeded ||
                    Code == ErrCode::IterationCapExceeded ||
                    Code == ErrCode::BudgetUnsatisfiable)
            << Where << ": unexpected code in "
            << Governed.error().str();
        EXPECT_FALSE(Governed.error().Message.empty()) << Where;
        continue;
      }
      // Sound result: every budget-degraded routine is quarantined, so
      // downstream conservatism is automatic.
      const Program &Prog = Governed->Result.Prog;
      EXPECT_EQ(Prog.numBudgetDegraded(),
                Governed->DegradedRoutines.size())
          << Where;
    }
}

//===----------------------------------------------------------------------===//
// Nop-differential: optimization under a blown budget stays behaviour-safe
//===----------------------------------------------------------------------===//

TEST(BudgetPipeline, DegradedOptimizationPreservesBehaviour) {
  for (uint64_t Seed : {17u, 23u, 41u}) {
    ExecProfile P;
    P.Routines = 20;
    P.CallsPerRoutine = 2.5;
    P.DeadCodeProb = 0.25;
    P.ExtraSaveProb = 0.15;
    P.Seed = Seed;
    Image Original = generateExecProgram(P);

    Image Img = Original;
    PipelineOptions Opts;
    Opts.Budget.MaxIterations = 1;
    PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
    EXPECT_GT(Stats.BudgetDegradedRoutines, 0u) << "seed " << Seed;

    SimResult Before = simulate(Original);
    SimResult After = simulate(Img);
    EXPECT_TRUE(Before.sameObservable(After))
        << "seed " << Seed
        << ": degraded optimization changed behaviour";
  }
}

TEST(BudgetPipeline, DegradedOptimizationBitIdenticalAcrossJobCounts) {
  ExecProfile P;
  P.Routines = 24;
  P.CallsPerRoutine = 2.5;
  P.DeadCodeProb = 0.25;
  P.Seed = 4242;
  Image Original = generateExecProgram(P);

  std::vector<uint8_t> SerialBytes;
  for (unsigned Jobs : {1u, 2u, 4u, 7u}) {
    Image Img = Original;
    PipelineOptions Opts;
    Opts.Jobs = Jobs;
    Opts.Budget.MaxIterations = 2;
    PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
    std::vector<uint8_t> Bytes = writeImage(Img);
    if (Jobs == 1) {
      SerialBytes = std::move(Bytes);
      EXPECT_GT(Stats.BudgetDegradedRoutines, 0u);
      continue;
    }
    EXPECT_EQ(Bytes, SerialBytes)
        << "jobs=" << Jobs << ": degraded optimization depends on --jobs";
  }
}

TEST(BudgetPipeline, ExhaustedBudgetStopsWithLastValidImage) {
  // A deadline the skew seam makes unsatisfiable: the pipeline must stop
  // (StoppedOnBudget), not throw, and return a behaviour-identical image.
  ExecProfile P;
  P.Routines = 12;
  P.Seed = 99;
  Image Original = generateExecProgram(P);

  faultinject::Injector Inj({faultinject::FaultKind::DeadlineSkew, 1});
  faultinject::Scope Installed(Inj);
  Image Img = Original;
  PipelineOptions Opts;
  Opts.Budget.DeadlineMs = 1000000; // Below the +1h skew: always blown.
  PipelineStats Stats = optimizeImage(Img, CallingConv(), Opts);
  EXPECT_TRUE(Stats.StoppedOnBudget);
  EXPECT_TRUE(simulate(Original).sameObservable(simulate(Img)));
}

//===----------------------------------------------------------------------===//
// ThreadPool exception hardening
//===----------------------------------------------------------------------===//

TEST(ThreadPoolHardening, ThrowingTaskWedgesNoSiblingsAndLeaksNoTasks) {
  for (unsigned Jobs : {1u, 4u, 7u}) {
    ThreadPool Pool(Jobs);
    std::atomic<uint64_t> Executed{0};
    EXPECT_THROW(
        Pool.parallelFor(200,
                         [&](size_t Index, unsigned) {
                           Executed.fetch_add(1,
                                              std::memory_order_relaxed);
                           if (Index == 37)
                             throw std::runtime_error("boom");
                         }),
        std::runtime_error)
        << "jobs=" << Jobs;
    // Every queued index still ran: nothing was leaked or wedged.
    EXPECT_EQ(Executed.load(), 200u) << "jobs=" << Jobs;

    // And the pool is reusable after the failed batch.
    std::atomic<uint64_t> Second{0};
    Pool.parallelFor(64, [&](size_t, unsigned) {
      Second.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(Second.load(), 64u) << "jobs=" << Jobs;
  }
}

TEST(ThreadPoolHardening, RethrowIsLowestIndexAtEveryJobCount) {
  for (unsigned Jobs : {1u, 4u, 7u})
    for (int Rep = 0; Rep < 10; ++Rep) {
      ThreadPool Pool(Jobs);
      std::string Caught;
      try {
        Pool.parallelFor(100, [&](size_t Index, unsigned) {
          if (Index == 10 || Index == 50 || Index == 90)
            throw std::runtime_error(std::to_string(Index));
        });
        FAIL() << "no exception escaped";
      } catch (const std::runtime_error &E) {
        Caught = E.what();
      }
      EXPECT_EQ(Caught, "10")
          << "jobs=" << Jobs << " rep=" << Rep
          << ": rethrow is not submission-order deterministic";
    }
}

//===----------------------------------------------------------------------===//
// Fault injection: every seam's documented structured outcome
//===----------------------------------------------------------------------===//

namespace {

Image faultSubject() {
  ExecProfile P;
  P.Routines = 16;
  P.Seed = 7;
  return generateExecProgram(P);
}

} // namespace

TEST(FaultInjection, AllocFaultThrowsBadAllocFromTrackedAllocation) {
  Image Img = faultSubject();
  faultinject::Injector Inj({faultinject::FaultKind::Alloc, 10});
  faultinject::Scope Installed(Inj);
  EXPECT_THROW(analyzeImage(Img, CallingConv(), {}), std::bad_alloc);
  EXPECT_TRUE(Inj.fired());
}

TEST(FaultInjection, TaskThrowSurfacesAsTaskFaultAtEveryJobCount) {
  Image Img = faultSubject();
  for (unsigned Jobs : {1u, 4u}) {
    faultinject::Injector Inj({faultinject::FaultKind::TaskThrow, 3});
    faultinject::Scope Installed(Inj);
    AnalysisOptions Opts;
    Opts.Jobs = Jobs;
    EXPECT_THROW(analyzeImage(Img, CallingConv(), Opts),
                 faultinject::TaskFault)
        << "jobs=" << Jobs;
    EXPECT_TRUE(Inj.fired()) << "jobs=" << Jobs;
  }
}

TEST(FaultInjection, CancelYieldsStructuredCancelledStatus) {
  Image Img = faultSubject();
  faultinject::Injector Inj({faultinject::FaultKind::Cancel, 1});
  faultinject::Scope Installed(Inj);
  CancellationToken Token;
  Expected<GovernedAnalysis> Governed =
      analyzeImageGoverned(Img, CallingConv(), {}, {}, &Token);
  ASSERT_FALSE(bool(Governed));
  EXPECT_EQ(Governed.error().Code, ErrCode::Cancelled);
  // The injected cancel latches the real token, exactly like a client
  // cancellation would.
  EXPECT_TRUE(Token.cancelled());
}

TEST(FaultInjection, DeadlineSkewExhaustsDegradationStructurally) {
  // The +1h skew makes every attempt blow its (large) deadline, so the
  // ladder runs to degrade-everything and reports BudgetUnsatisfiable.
  Image Img = faultSubject();
  faultinject::Injector Inj({faultinject::FaultKind::DeadlineSkew, 1});
  faultinject::Scope Installed(Inj);
  BudgetOptions Budget;
  Budget.DeadlineMs = 1000000;
  Expected<GovernedAnalysis> Governed =
      analyzeImageGoverned(Img, CallingConv(), {}, Budget);
  ASSERT_FALSE(bool(Governed));
  EXPECT_EQ(Governed.error().Code, ErrCode::BudgetUnsatisfiable);
  EXPECT_TRUE(Inj.fired());
}

TEST(FaultInjection, PlanParserAcceptsTheFlagGrammarOnly) {
  faultinject::FaultPlan Plan;
  std::string Err;
  EXPECT_TRUE(faultinject::parsePlan("alloc@250", Plan, Err));
  EXPECT_EQ(Plan.Kind, faultinject::FaultKind::Alloc);
  EXPECT_EQ(Plan.Trigger, 250u);
  EXPECT_TRUE(faultinject::parsePlan("task-throw@3", Plan, Err));
  EXPECT_EQ(Plan.Kind, faultinject::FaultKind::TaskThrow);
  EXPECT_TRUE(faultinject::parsePlan("deadline-skew@1", Plan, Err));
  EXPECT_TRUE(faultinject::parsePlan("cancel@40", Plan, Err));
  for (const char *Bad : {"alloc", "alloc@", "alloc@0", "alloc@x", "alloc@-1",
                          "alloc@+5", "alloc@ 5", "frobnicate@3", "@5", ""})
    EXPECT_FALSE(faultinject::parsePlan(Bad, Plan, Err)) << Bad;
}

//===----------------------------------------------------------------------===//
// Status plumbing and lint surfacing
//===----------------------------------------------------------------------===//

TEST(BudgetStatus, VerdictsMapToTheirErrorCodes) {
  EXPECT_EQ(errCodeForVerdict(BudgetVerdict::DeadlineExpired),
            ErrCode::DeadlineExpired);
  EXPECT_EQ(errCodeForVerdict(BudgetVerdict::MemoryExceeded),
            ErrCode::MemBudgetExceeded);
  EXPECT_EQ(errCodeForVerdict(BudgetVerdict::IterationCapHit),
            ErrCode::IterationCapExceeded);
  EXPECT_EQ(errCodeForVerdict(BudgetVerdict::Cancelled),
            ErrCode::Cancelled);

  BudgetBlownError E(BudgetVerdict::IterationCapHit, "psg.phase1",
                     {"P3", "P7"});
  Status S = E.toStatus();
  EXPECT_EQ(S.Code, ErrCode::IterationCapExceeded);
  EXPECT_NE(S.str().find("psg.phase1"), std::string::npos) << S.str();
}

TEST(BudgetLint, SL013FlagsBudgetDegradedRoutinesInsteadOfSL011) {
  Image Img = faultSubject();
  BudgetOptions Budget;
  Budget.MaxIterations = 1;
  Expected<GovernedAnalysis> Governed =
      analyzeImageGoverned(Img, CallingConv(), {}, Budget);
  ASSERT_TRUE(bool(Governed));
  ASSERT_FALSE(Governed->DegradedRoutines.empty());

  LintResult Lint = lintAnalysis(Img, Governed->Result, {});
  unsigned SL013 = 0, SL011 = 0;
  for (const Diagnostic &D : Lint.Diags) {
    SL013 += D.Rule == RuleId::BudgetDegraded;
    SL011 += D.Rule == RuleId::QuarantinedRoutine;
  }
  EXPECT_EQ(SL013, Governed->DegradedRoutines.size());
  // Budget-degraded routines are unaffordable, not unknowable: SL011
  // stays reserved for real quarantines.
  EXPECT_EQ(SL011, 0u);

  // The rule can be disabled like any other.
  LintOptions Disabled;
  Disabled.disableRule(RuleId::BudgetDegraded);
  LintResult Quiet = lintAnalysis(Img, Governed->Result, Disabled);
  for (const Diagnostic &D : Quiet.Diags)
    EXPECT_NE(D.Rule, RuleId::BudgetDegraded);
}

//===----------------------------------------------------------------------===//
// RunReport: degradation round-trip and strict diffing
//===----------------------------------------------------------------------===//

TEST(BudgetReport, DegradationsRoundTripThroughRunReportJson) {
  telemetry::Session S("budget_test");
  S.addDegrade({"P7", "iteration-cap", "psg.phase1.must-def"});
  S.addDegrade({"P9", "deadline", ""});
  std::string Json = telemetry::runReportJson(S);

  std::string Error;
  std::optional<telemetry::RunReport> Report =
      telemetry::parseRunReport(Json, &Error);
  ASSERT_TRUE(Report.has_value()) << Error;
  ASSERT_EQ(Report->Degradations.size(), 2u);
  EXPECT_EQ(Report->Degradations[0].Routine, "P7");
  EXPECT_EQ(Report->Degradations[0].Reason, "iteration-cap");
  EXPECT_EQ(Report->Degradations[0].Phase, "psg.phase1.must-def");
  EXPECT_EQ(Report->Degradations[1].Routine, "P9");
  EXPECT_EQ(Report->Degradations[1].Phase, "");
  EXPECT_EQ(Report->degradeCounts().at("degrade.deadline"), 1u);
}

TEST(BudgetReport, AnyDegradationGrowthRegressesEvenFromZeroBaseline) {
  telemetry::Session Base("budget_test");
  telemetry::Session Cur("budget_test");
  Cur.addDegrade({"P7", "iteration-cap", "psg.phase1"});

  std::optional<telemetry::RunReport> Baseline =
      telemetry::parseRunReport(telemetry::runReportJson(Base));
  std::optional<telemetry::RunReport> Current =
      telemetry::parseRunReport(telemetry::runReportJson(Cur));
  ASSERT_TRUE(Baseline.has_value());
  ASSERT_TRUE(Current.has_value());

  telemetry::ReportDiff Diff = telemetry::diffReports(*Baseline, *Current);
  bool Flagged = false;
  for (const telemetry::DiffRow &Row : Diff.Rows)
    if (Row.K == telemetry::DiffRow::Kind::Degrade &&
        Row.Name == "degrade.iteration-cap")
      Flagged = Row.Regression;
  EXPECT_TRUE(Flagged)
      << "zero-baseline degradation growth was not flagged:\n"
      << Diff.str();
  EXPECT_GE(Diff.Regressions, 1u);
}

TEST(BudgetReport, DegradeCountersRegressOnAnyGrowthUnlikeOtherCounters) {
  telemetry::Session Base("budget_test");
  telemetry::Session Cur("budget_test");
  {
    telemetry::SessionScope Scope(Base);
    telemetry::count("psg.nodes", 100);
  }
  {
    telemetry::SessionScope Scope(Cur);
    telemetry::count("psg.nodes", 105);          // +5%: within threshold.
    telemetry::count("degrade.budget_blows", 1); // Any growth: regression.
  }

  std::optional<telemetry::RunReport> Baseline =
      telemetry::parseRunReport(telemetry::runReportJson(Base));
  std::optional<telemetry::RunReport> Current =
      telemetry::parseRunReport(telemetry::runReportJson(Cur));
  ASSERT_TRUE(Baseline.has_value());
  ASSERT_TRUE(Current.has_value());

  telemetry::ReportDiff Diff = telemetry::diffReports(*Baseline, *Current);
  bool DegradeRegressed = false, NodesRegressed = false;
  for (const telemetry::DiffRow &Row : Diff.Rows) {
    if (Row.Name == "degrade.budget_blows")
      DegradeRegressed = Row.Regression;
    if (Row.Name == "psg.nodes")
      NodesRegressed = Row.Regression;
  }
  EXPECT_TRUE(DegradeRegressed) << Diff.str();
  EXPECT_FALSE(NodesRegressed) << Diff.str();
}
