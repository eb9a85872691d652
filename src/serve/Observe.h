//===- serve/Observe.h - Request-scoped service observability -*- C++ -*-===//
//
// Part of the spike-psg project (Goodwin, PLDI 1997 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Per-request observability for the resident server: every protocol
/// line becomes one RequestRecord (queue-wait vs execute split, bytes
/// in/out, degrade status, the patch's dirty-frontier sizes), recorded
/// into per-command latency/queue-wait histograms and — when an access
/// log is configured — written as one JSONL line.
///
/// Determinism contract, inherited from handleBatch(): records are
/// observed serially, in arrival order, after any parallel join, so with
/// the timing fields (`queue_ns`, `exec_ns`, hotspot `ns`) and the
/// header's `jobs` scrubbed, the access log is byte-identical at every
/// --jobs.  Requests slower than the slow threshold get the hot-spot
/// attribution rows (telemetry::HotSpotRecord) their barrier dispatch
/// charged to the resident session attached, answering "which request
/// was slow, and why" without re-running anything.
///
/// Zero-cost when disabled: a disabled RequestObserver is a bool test;
/// filling a RequestRecord and asking enabled()/slow() never allocates
/// (the noalloc suite proves it).  RequestRecord is fixed-size by
/// construction — command ids are an enum, degrade reasons are static
/// verdict words — so capture itself is allocation-free even when
/// enabled; only rendering the JSONL line allocates.
///
//===----------------------------------------------------------------------===//

#ifndef SPIKE_SERVE_OBSERVE_H
#define SPIKE_SERVE_OBSERVE_H

#include "interproc/Incremental.h"
#include "telemetry/Histogram.h"
#include "telemetry/Telemetry.h"

#include <array>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace spike {
namespace serve {

/// The protocol commands, in stats/metrics rendering order.
enum class Command : uint8_t {
  Load,
  Analyze,
  Lint,
  Explain,
  Slice,
  Patch,
  Stats,
  Metrics,
  Shutdown,
  Unknown,
};

constexpr unsigned NumCommands = 10;

/// The wire name of \p C ("patch-routine", ...); "?" for Unknown.
const char *commandName(Command C);

/// The Command for wire token \p Cmd; Unknown for anything else.
Command commandFor(const std::string &Cmd);

/// One request's observability record.  Fixed-size: filling one never
/// allocates.
struct RequestRecord {
  uint64_t Seq = 0;
  Command Cmd = Command::Unknown;
  bool Ok = true;

  /// Malformed line or unknown command (the serve.protocol_errors
  /// class), as opposed to a well-formed request that failed.
  bool ProtocolError = false;

  bool Degraded = false;

  /// Static verdict word ("iteration-cap", "memory", ...) or null.
  const char *DegradeReason = nullptr;

  uint64_t BytesIn = 0;  ///< Request line bytes (without the newline).
  uint64_t BytesOut = 0; ///< Reply line bytes (without the newline).

  uint64_t QueueNs = 0; ///< Arrival to execution start (batch wait).
  uint64_t ExecNs = 0;  ///< Execution start to reply completion.

  bool Slow = false; ///< ExecNs crossed the --slow-ms threshold.

  /// The patch's dirty-frontier accounting, patch-routine only
  /// (HasPatch gates it).
  bool HasPatch = false;
  IncrementalOutcome Patch;
};

/// Owns the per-command histograms and the access-log sink.  Written to
/// serially by Server::handleBatch, in arrival order.
class RequestObserver {
public:
  RequestObserver() = default;
  ~RequestObserver();

  RequestObserver(const RequestObserver &) = delete;
  RequestObserver &operator=(const RequestObserver &) = delete;

  /// Turns observation on; opens \p AccessLogPath (empty = histograms
  /// only) and writes its header line.  \p SlowMs < 0 disables the slow
  /// threshold; 0 marks every request slow.  False with \p Error set if
  /// the log cannot be opened.
  bool enable(const std::string &AccessLogPath, int64_t SlowMs, unsigned Jobs,
              std::string *Error);

  bool enabled() const { return Enabled; }
  int64_t slowMs() const { return SlowMs; }

  /// True when an ExecNs crosses the slow threshold.
  bool slow(uint64_t ExecNs) const {
    return SlowMs >= 0 && ExecNs >= uint64_t(SlowMs) * 1000000u;
  }

  /// Records \p R: per-command histograms, a mirror into the active
  /// telemetry session's "serve.latency.<cmd>" / "serve.queue_wait.<cmd>"
  /// histograms (so RunReports carry them), and one access-log line.
  /// \p RawCmd is the wire token (hostile bytes escape via jsonQuote);
  /// \p Spots is the request's hot-spot attribution, written only for
  /// slow requests.
  void observe(const RequestRecord &R, const std::string &RawCmd,
               const std::vector<telemetry::HotSpotRecord> &Spots);

  const telemetry::Histogram &latency(Command C) const {
    return Latency[unsigned(C)];
  }
  const telemetry::Histogram &queueWait(Command C) const {
    return QueueWait[unsigned(C)];
  }

  /// The enriched-stats fragment: `"latency":{...},"queue_wait":{...}`
  /// with per-command count/mean/p50/p90/p99 (ns), commands in enum
  /// order, empty histograms elided.
  std::string statsJson() const;

private:
  bool Enabled = false;
  int64_t SlowMs = -1;
  std::FILE *Log = nullptr;
  std::array<telemetry::Histogram, NumCommands> Latency;
  std::array<telemetry::Histogram, NumCommands> QueueWait;
};

} // namespace serve
} // namespace spike

#endif // SPIKE_SERVE_OBSERVE_H
