// rdcn: the rdcn_serve line protocol.
//
// Serving mode speaks a newline-delimited text protocol over a local
// stream socket — one scenario spec string in, progress lines and a CSV
// payload back.  Everything here is pure string parsing/formatting shared
// by the daemon, the client library, and the protocol tests; no sockets.
//
// Client → server, one command per line (lines over 1 MiB are answered
// with `ERROR reason=line_too_long` and the connection is closed):
//
//   PING                          liveness probe
//   HELLO client=<name>           bind this connection to a tenant: later
//                                 RUNs charge <name>'s quota and fairness
//                                 lane (1-64 chars of [A-Za-z0-9._-]);
//                                 anonymous connections pool under "anon"
//   RUN <scenario-spec> [deadline_ms=<n>] [client=<name>] [priority=<0-2>]
//                                 submit (ScenarioSpec::parse form); with
//                                 deadline_ms the daemon arms a monotonic
//                                 watchdog: a run still going n ms after
//                                 admission is cancelled cooperatively and
//                                 finishes DONE status=deadline_exceeded.
//                                 client= overrides the HELLO binding for
//                                 this one run (proxies submitting on
//                                 behalf of tenants); priority= (default
//                                 1) orders load shedding under brownout —
//                                 lower priorities shed first
//   CANCEL <id>                   cooperative cancel of a submitted run
//   RESET spec=<canonical> | RESET all=1
//                                 operator verb: clear the quarantine /
//                                 crash-streak state of one canonical
//                                 spec (or all of them) without a daemon
//                                 restart; journaled as streak-0 records
//   ATTACH <id> [from=<k>]        resubscribe to a queued/running/recently
//                                 finished run (ids are stable across
//                                 daemon restarts when a journal is
//                                 armed); missed CHECKPOINT lines with
//                                 seq >= k replay from a bounded per-run
//                                 ring, then the stream continues live
//   STATS                         queue/cache/failure counters
//   METRICS                       full Prometheus text exposition
//   SHUTDOWN [drain=<0|1>]        stop the daemon; drain=1 stops
//                                 admissions, lets in-flight runs finish
//                                 (bounded by the daemon's --drain-ms),
//                                 then exits
//
// Server → client:
//
//   PONG
//   ERROR <message>               malformed command / SpecError text.
//                                 Machine-readable refusals lead with a
//                                 reason= token: reason=line_too_long,
//                                 reason=quarantined (spec fast-failed
//                                 after repeated executor crashes),
//                                 reason=file_workload (`csv` workloads
//                                 read daemon-host files; never served).
//                                 Executor crashes (non-SpecError escapes)
//                                 report as ERROR internal=<what> before
//                                 their DONE status=error line.
//   ACCEPTED id=<n>               run admitted (queued or cache hit)
//   WELCOME client=<name>         HELLO accepted; the binding is live
//   REJECT retry_ms=<n> reason=<queue_full|quota|shed>
//                                 backpressure: try again after retry_ms.
//                                 queue_full = admission queue at bound
//                                 (hint from the measured drain rate);
//                                 quota = the client's token bucket or
//                                 concurrent-run cap refused (hint from
//                                 the bucket refill); shed = brownout
//                                 load shedding dropped this priority
//                                 (hint scales with the brownout level)
//   CANCELLING id=<n>             cancel request acknowledged
//   RESETOK cleared=<n>           RESET done; n streak entries cleared
//   ATTACHED id=<n> state=<queued|running|done> last_seq=<m>
//                                 ATTACH accepted; replayed CHECKPOINTs
//                                 (if any) and the rest of the run's
//                                 stream follow.  last_seq is the highest
//                                 checkpoint seq emitted so far.
//   CHECKPOINT id=<n> seq=<m> label=<l> seed=<s> requests=<r> routing=<c>
//              total=<c> wall=<sec>        one line per trial checkpoint;
//                                 seq numbers a run's checkpoints from 1
//                                 so ATTACH from=<k> can resume exactly
//   RESULT id=<n> cached=<0|1> lines=<k>   followed by k raw CSV lines
//   DONE id=<n> status=<ok|cancelled|deadline_exceeded|stalled|error>
//                                 run finished (terminal); stalled = the
//                                 progress watchdog cancelled a run whose
//                                 checkpoint seq stopped advancing
//   STATS active=<n> queued=<n> cache_hits=<n> cache_misses=<n>
//         cache_entries=<n> completed=<n> cancelled=<n>
//         deadline_exceeded=<n> crashed=<n> rejected=<n> quarantined=<n>
//         disk_hits=<n> disk_corrupt=<n> recovered=<n> attached=<n>
//         shed=<n> stalled=<n> brownout=<0|1|2> clients=<n>
//   METRICS lines=<k>             followed by k raw Prometheus text
//                                 exposition lines (obs registry render);
//                                 header + payload travel as one write
//                                 unit like RESULT
//   BYE                           shutdown acknowledged (connection closes)
//
// A RUN's lifetime on the wire: ACCEPTED, zero or more CHECKPOINTs,
// optionally ERROR (execution failure), RESULT + payload on success, and
// always exactly one DONE.  An ERROR *without* a preceding ACCEPTED means
// the submission was refused (bad spec, quarantined) — no DONE follows.
// Lines for different runs may interleave on one connection (the id
// attributes them).
#pragma once

#include <cstdint>
#include <string>

#include "sim/metrics.hpp"

namespace rdcn::serve {

struct Command {
  enum class Kind {
    kPing,
    kHello,
    kRun,
    kCancel,
    kAttach,
    kReset,
    kStats,
    kMetrics,
    kShutdown,
    kInvalid,
  };
  Kind kind = Kind::kInvalid;
  std::string spec;       ///< kRun: spec text; kReset: canonical spec
  std::uint64_t id = 0;   ///< kCancel/kAttach: the run id
  std::uint64_t deadline_ms = 0;  ///< kRun: watchdog deadline (0 = none)
  std::uint64_t from = 1;  ///< kAttach: first checkpoint seq to replay
  bool drain = false;      ///< kShutdown: finish in-flight runs first
  std::string client;  ///< kHello: binding; kRun: per-run override ("")
  int priority = 1;    ///< kRun: shed order under brownout (0-2)
  bool all = false;    ///< kReset: clear every streak
  std::string error;      ///< kInvalid: what was wrong
};

/// Parses one client line.  Never throws; malformed input yields kInvalid
/// with a diagnostic the daemon echoes back as an ERROR line.
Command parse_command(const std::string& line);

/// The STATS reply, both directions: the daemon fills one and formats it
/// with msg_stats; clients parse the reply's attribute text back into the
/// same struct with parse_stats (unknown attributes are ignored, missing
/// ones stay zero — the pair is forward/backward compatible).
struct StatsReport {
  std::size_t active = 0;             ///< runs currently executing
  std::size_t queued = 0;             ///< runs waiting for an executor
  std::uint64_t cache_hits = 0;       ///< in-memory results-cache hits
  std::uint64_t cache_misses = 0;
  std::size_t cache_entries = 0;
  std::uint64_t completed = 0;          ///< runs finished DONE status=ok
  std::uint64_t cancelled = 0;          ///< ... status=cancelled
  std::uint64_t deadline_exceeded = 0;  ///< ... status=deadline_exceeded
  std::uint64_t crashed = 0;    ///< executor crashes (ERROR internal=...)
  std::uint64_t rejected = 0;   ///< REJECTs issued (backpressure)
  std::uint64_t quarantined = 0;  ///< submissions refused as quarantined
  std::uint64_t disk_hits = 0;    ///< runs served from the on-disk cache
  std::uint64_t disk_corrupt = 0;  ///< corrupt disk entries skipped
  std::uint64_t recovered = 0;  ///< runs re-enqueued from the journal
  std::uint64_t attached = 0;   ///< successful ATTACH subscriptions
  std::uint64_t shed = 0;       ///< REJECT reason=shed (brownout drops)
  std::uint64_t stalled = 0;    ///< DONE status=stalled (progress watchdog)
  std::size_t brownout = 0;     ///< current brownout level (0 = healthy)
  std::size_t clients = 0;      ///< distinct client lanes seen so far
};
StatsReport parse_stats(const std::string& attrs);

/// Newlines embedded in `text` (e.g. multi-line exception messages) would
/// break line framing; fold them into spaces.
std::string sanitize(std::string text);

std::string msg_pong();
std::string msg_error(const std::string& what);
std::string msg_accepted(std::uint64_t id);
std::string msg_welcome(const std::string& client);
/// `reason` is one of queue_full | quota | shed (wire contract above).
std::string msg_reject(std::uint32_t retry_ms,
                       const std::string& reason = "queue_full");
std::string msg_cancelling(std::uint64_t id);
std::string msg_resetok(std::size_t cleared);
/// ATTACHED reply: `state` is queued | running | done.
std::string msg_attached(std::uint64_t id, const std::string& state,
                         std::uint64_t last_seq);
std::string msg_checkpoint(std::uint64_t id, std::uint64_t seq,
                           const std::string& label, std::uint64_t seed,
                           const sim::Checkpoint& c);
std::string msg_result(std::uint64_t id, bool cached, std::size_t lines);
std::string msg_done(std::uint64_t id, const std::string& status);
std::string msg_stats(const StatsReport& report);
/// Header of a METRICS reply; `lines` raw exposition lines follow.
std::string msg_metrics(std::size_t lines);
std::string msg_bye();

/// Client-side view of one server line.
struct ServerLine {
  enum class Kind {
    kPong,
    kError,
    kAccepted,
    kWelcome,
    kReject,
    kCancelling,
    kResetOk,
    kAttached,
    kCheckpoint,
    kResult,
    kDone,
    kStats,
    kMetrics,
    kBye,
    kOther,  ///< unrecognized (forward-compatible: clients skip these)
  };
  Kind kind = Kind::kOther;
  std::uint64_t id = 0;        ///< runs: ACCEPTED/CHECKPOINT/RESULT/DONE/...
  std::string text;            ///< kError: message; kWelcome: client name;
                               ///< kOther: whole line
  std::uint32_t retry_ms = 0;  ///< kReject
  bool cached = false;         ///< kResult
  std::size_t lines = 0;  ///< kResult/kMetrics: payload line count;
                          ///< kResetOk: streak entries cleared
  std::string status;  ///< kDone: ok|...|error; kAttached: state;
                       ///< kReject: reason (queue_full|quota|shed)
  std::uint64_t seq = 0;  ///< kCheckpoint: seq; kAttached: last_seq
};

/// Parses one server line.  Never throws; unknown verbs yield kOther.
ServerLine parse_server_line(const std::string& line);

}  // namespace rdcn::serve
