//===- serve/Serve.h - Resident analysis server ---------------*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A long-lived, demand-driven front end over the interprocedural
/// analysis: load an image once, keep the program and its converged PSG
/// summaries resident, and answer queries over a newline-delimited line
/// protocol.  Each request is one line
///
///   <command> [<json-object>]
///
/// and each reply is exactly one line of JSON carrying the request's
/// sequence number, so a client can pipeline freely.  Commands:
///
///   load          {"path": "app.spkx"}      analyze an image fresh
///   analyze       [{"routine": "name"}]     summaries (whole program or
///                                           one routine)
///   lint          [{"min-severity": "..."}] rule-catalogue diagnostics
///   explain       {"fact": "live|may-use|may-def",
///                  "loc": "r5@entry:foo"}   witness chain, searched
///                                           on demand
///                 {"fact": "dead", "addr": N [, "reg": "r3"]}
///   slice         {"addr": N [, "dir": "backward|forward"]}
///   patch-routine {"routine": "name",
///                  "code": [w0, w1, ...]}   splice new code, re-analyze
///                                           incrementally (words above
///                                           2^53 must be sent as decimal
///                                           or 0x-prefixed strings —
///                                           JSON numbers are doubles)
///   stats         {}                        server counters, the last
///                                           patch's dirty frontier, and
///                                           (when observing) per-command
///                                           latency percentiles
///   metrics       {}                        live counters/gauges/histograms
///                                           in Prometheus text-exposition
///                                           format (JSON-escaped "body")
///   shutdown      {}                        end the session
///
/// `patch-routine` drives interproc/Incremental.h: only the patched
/// routine's SCC group and its transitive dependents re-solve; the reply
/// and the `stats` command report the dirty-frontier sizes.  Stack-slot
/// facts and the dependence graph are derived state: the first `slice`
/// builds them, and `load` and every patch that changes the program drop
/// them, so a server that is never sliced never solves slot facts.
/// Read-only queries (`analyze`, `lint`, `explain`, `slice`) between
/// mutations are independent, and handleBatch() evaluates a run of them
/// in parallel on the server's pool — replies are byte-identical at every
/// job count and for every interleaving, because each reply is a pure
/// function of the resident state.  Budget options apply per request: a
/// blown query or patch degrades that one reply (marked with the
/// `!! DEGRADED` banner in its "note" field) and the server keeps
/// serving.
///
/// A malformed line — unknown command, bad JSON, missing field — yields
/// an "ok": false reply, never a crash; the spike-fuzz serve arm feeds
/// this contract random garbage.
///
/// Request-scoped observability (serve/Observe.h) rides on the same
/// batch loop: when enabled, every request is timed (queue wait vs
/// execute), recorded into per-command histograms, and appended to the
/// access log as one JSONL line; requests over the slow threshold carry
/// the hot-spot attribution their dispatch charged to the resident
/// telemetry session.  Records are observed serially in arrival order,
/// so scrubbed of timing fields the log is byte-identical at every job
/// count.  Off by default: an unobserved server takes no timestamps and
/// allocates nothing for observability, keeping the differential-oracle
/// byte-identity contract untouched.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SERVE_SERVE_H
#define SPIKE_SERVE_SERVE_H

#include "binary/Image.h"
#include "interproc/Incremental.h"
#include "psg/Analyzer.h"
#include "serve/Observe.h"
#include "slice/DepGraph.h"
#include "slice/SlotFlow.h"
#include "support/ThreadPool.h"
#include "telemetry/Telemetry.h"

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace spike {

/// Configuration of one Server instance.
struct ServerOptions {
  /// Worker lanes of the resident pool: used by every analysis and by
  /// parallel query batches.  Replies are identical for every value.
  unsigned Jobs = 1;

  /// Per-request resource budget (empty = ungoverned).  A blown request
  /// degrades its own reply; the server survives.
  BudgetOptions Budget;

  /// Calling standard used for every analysis.
  CallingConv Conv;

  /// Request observability master switch.  Observation is on when this
  /// is set OR an access log is configured OR a slow threshold is set;
  /// when all three are off the server takes no per-request timestamps
  /// and allocates nothing for observability.
  bool Observe = false;

  /// JSONL access-log path; empty = no log (histograms only).
  std::string AccessLogPath;

  /// Requests whose execute time reaches this many milliseconds are
  /// marked slow and carry hot-spot attribution in the access log.
  /// 0 marks everything slow (CI mode); < 0 disables the threshold.
  int64_t SlowMs = -1;
};

/// Monotonic server counters, mirrored into the `stats` reply and the
/// serve.* run-report counters.
struct ServeStats {
  uint64_t Queries = 0;        ///< analyze/lint/explain/slice handled.
  uint64_t Loads = 0;          ///< successful `load` commands.
  uint64_t Patches = 0;        ///< successful `patch-routine` commands.
  uint64_t PatchFullSolves = 0;///< patches that fell back to a full solve.
  uint64_t DepGraphBuilds = 0; ///< dependence-graph cache misses.
  uint64_t DepGraphHits = 0;   ///< dependence-graph cache hits.
  uint64_t DegradedReplies = 0;///< replies carrying the degraded banner.
  uint64_t Errors = 0;         ///< "ok": false replies of any kind.
  uint64_t ProtocolErrors = 0; ///< the malformed-line subset of Errors
                               ///< (bad JSON, unknown command).

  /// Dirty-frontier accounting of the most recent patch.
  IncrementalOutcome LastPatch;
};

/// The resident analysis service.  Thread-compatible: all public entry
/// points are called from one thread; handleBatch() fans read-only
/// queries out over the internal pool itself.
class Server {
public:
  explicit Server(ServerOptions Opts);
  ~Server();

  Server(const Server &) = delete;
  Server &operator=(const Server &) = delete;

  /// Loads \p Img as if by a `load` command (the tool's positional image
  /// argument).  Returns false and sets \p Error on analysis failure.
  bool loadImage(Image Img, std::string *Error = nullptr);

  /// Handles one protocol line and returns its one-line JSON reply.
  std::string handleLine(const std::string &Line);

  /// Handles \p Lines in order, evaluating maximal runs of read-only
  /// queries in parallel on the pool.  Replies are positionally parallel
  /// to \p Lines and byte-identical to handling each line alone.
  std::vector<std::string> handleBatch(const std::vector<std::string> &Lines);

  /// True once a `shutdown` command was handled.
  bool exited() const { return Exited; }

  /// True while an image is loaded and analyzed.
  bool loaded() const { return Loaded; }

  const ServeStats &stats() const { return St; }

  /// The request observer (histograms, access log).  Disabled unless the
  /// options asked for observation.
  const serve::RequestObserver &observer() const { return Obs; }

  /// Non-empty when the options could not be honored at construction
  /// (unopenable access log); the server still serves, unobserved.
  const std::string &startupError() const { return StartupError; }

  /// Resident-state accessors, for embedders and the differential oracle
  /// tests (valid only while loaded()).  analysis().Prog borrows the
  /// words of image().
  const AnalysisResult &analysis() const { return A; }
  const Image &image() const { return Img; }

  /// The slot facts of the resident program, solved inline and ungoverned
  /// on first use and shared with `slice`.  The reference is valid until
  /// the next `load` or program-changing patch.
  const SlotFlowResult &slotFlow() const;

  /// Implementation types, public so file-local helpers in Serve.cpp can
  /// build replies; not part of the client API.
  struct Reply;
  struct Request;

private:
  Request parseRequest(const std::string &Line, uint64_t Seq) const;
  Reply dispatch(const Request &Req);
  Reply handleLoad(const Request &Req);
  Reply handleAnalyze(const Request &Req) const;
  Reply handleLint(const Request &Req) const;
  Reply handleExplain(const Request &Req) const;
  Reply handleSlice(const Request &Req);
  Reply handlePatch(const Request &Req);
  Reply handleStats(const Request &Req) const;
  Reply handleMetrics(const Request &Req) const;

  /// Returns the cached dependence graph, building it (and the slot facts
  /// it reads) on first use under the request budget (thread-safe;
  /// concurrent `slice` queries build once).
  const DependenceGraph &depGraph(bool &WasHit);

  /// The slot facts, solved inline under \p Gov if not yet derived.
  /// Callers hold DepsMu.
  const SlotFlowResult &slotsLocked(const ResourceGovernor *Gov) const;

  /// A from-scratch analysis of \p NewImg: through the degrade ladder
  /// when a budget is set (load, and a patch whose incremental re-solve
  /// blew it), plain otherwise.
  Expected<GovernedAnalysis> analyzeFresh(const Image &NewImg) const;

  void installFresh(Image NewImg, AnalysisResult NewA);

  /// Makes \p NewImg the resident image and re-points the resident
  /// program's borrowed code words at it.  \p NewImg must have the same
  /// instructions as the image A was analyzed from.
  void replaceImage(Image NewImg);

  ServerOptions Opts;
  ThreadPool Pool;

  // Resident state (mutated only by barrier commands).
  bool Loaded = false;
  Image Img;
  AnalysisResult A;

  // Derived state, built on first use; reset by load and by every
  // patch-routine except an all-clean one.
  mutable std::optional<SlotFlowResult> Slots;
  std::optional<DependenceGraph> Deps;
  mutable std::mutex DepsMu;

  ServeStats St;
  uint64_t NextSeq = 0;
  bool Exited = false;

  // Request observability.  ObsSession is the resident fallback session
  // that captures hot-spot attribution (and serve.* counters) when the
  // embedding tool did not install its own telemetry session; it lives
  // as long as the server, so `metrics` is scrapeable without restart.
  serve::RequestObserver Obs;
  std::optional<telemetry::Session> ObsSession;
  std::string StartupError;
};

/// Serves the line protocol over stdio-style streams until EOF or a
/// `shutdown` command.  Reads greedily: all complete lines already
/// buffered on \p In are handled as one batch, so pipelined read-only
/// queries run in parallel.  Returns 0 (protocol errors are replies, not
/// exit codes).
int serveStream(Server &S, FILE *In, FILE *Out);

/// Binds a unix-domain socket at \p Path and serves connections
/// sequentially until a `shutdown` command arrives.  Returns 0 on
/// orderly shutdown, 1 on socket errors (message in \p Error).
int serveSocket(Server &S, const std::string &Path, std::string *Error);

} // namespace spike

#endif // SPIKE_SERVE_SERVE_H
