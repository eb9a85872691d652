//===- tests/DifferentialCorpus.h - The shared test subjects --*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The 20 differential subjects the parallel, provenance, budget, serve
/// and lint tests share: every paper profile capped at ~120 routines (the
/// shapes matter, not the full sizes) plus 4 executable programs with
/// varying indirection.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_TESTS_DIFFERENTIALCORPUS_H
#define SPIKE_TESTS_DIFFERENTIALCORPUS_H

#include "binary/Image.h"
#include "synth/CfgGenerator.h"
#include "synth/ExecGenerator.h"
#include "synth/Profiles.h"

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace spike {
namespace testcorpus {

/// The subjects as (name, image) pairs, in a fixed order.
inline std::vector<std::pair<std::string, Image>> differentialCorpus() {
  std::vector<std::pair<std::string, Image>> Corpus;
  for (const BenchmarkProfile &P : paperProfiles()) {
    double Scale = P.Routines > 120 ? 120.0 / P.Routines : 1.0;
    Corpus.emplace_back(P.Name, generateCfgProgram(scaledProfile(P, Scale)));
  }
  for (uint64_t Seed : {3u, 11u, 29u, 5u}) {
    ExecProfile P;
    P.Routines = 24;
    P.IndirectCallProb = Seed == 5 ? 0.25 : 0.05;
    P.Seed = Seed;
    Corpus.emplace_back("exec-" + std::to_string(Seed),
                        generateExecProgram(P));
  }
  return Corpus;
}

} // namespace testcorpus
} // namespace spike

#endif // SPIKE_TESTS_DIFFERENTIALCORPUS_H
