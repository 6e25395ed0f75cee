// Total-ordered protocol event history of one campaign run.
//
// The executor protocol (specs/executor_protocol.md) is stated over
// recorded histories, not over code: when EngineConfig::history is set,
// the engine's coordinator appends one ProtocolEvent at every
// protocol-relevant point of the virtual-event loop — job submission,
// placement, mid-attempt faults, requeues, terminal outcomes. Because only
// the coordinator writes, in virtual-time settlement order, the history is
// a pure function of the seeded campaign inputs: byte-identical canonical
// bytes across reruns and worker counts (invariant W1), which is what lets
// the nemesis harness (src/nemesis/) diff and replay it.
//
// Events carry the job's *cumulative* checkpointed steps and dollar spend,
// and settlement events additionally carry the attempt's deltas — the
// redundancy is deliberate: it is what makes checkpoint monotonicity (K1)
// and cost conservation (C1) checkable from the history alone, so a
// double-charge or a resume past the checkpoint is visible as an
// arithmetic contradiction inside the recorded stream.
#pragma once

#include <string>
#include <vector>

#include "units/units.hpp"
#include "util/common.hpp"

namespace hemo::sched {

/// Protocol-relevant event kinds (specs/executor_protocol.md §2).
enum class ProtocolEventKind {
  kSubmitted,       ///< job entered the campaign queue (t = 0)
  kPlaced,          ///< attempt placed and submitted to the pool
  kPreemption,      ///< spot capacity reclaimed mid-attempt
  kCorruptRestore,  ///< corrupted checkpoint forced a deeper reload
  kGuardStop,       ///< overrun guard hard-stopped the attempt
  kWorkerCrash,     ///< worker died mid-attempt (any tenancy)
  kRequeued,        ///< stopped attempt settled back into the queue
  kCompleted,       ///< all timesteps done (terminal)
  kFailed,          ///< terminal failure (from queue or settlement)
};

/// Stable lowercase name used in canonical bytes and trace matching.
[[nodiscard]] const char* protocol_event_name(ProtocolEventKind kind);

/// True for the four kinds reported from inside a running attempt
/// (kPreemption, kCorruptRestore, kGuardStop, kWorkerCrash); the others
/// happen at coordinator queue or settlement points.
[[nodiscard]] bool is_mid_attempt(ProtocolEventKind kind);

/// One protocol event. `steps` and `usd` are the job's cumulative values
/// at the event; settlement events also carry the attempt's deltas.
struct ProtocolEvent {
  index_t seq = 0;  ///< total order (assigned by ProtocolHistory::record)
  ProtocolEventKind kind = ProtocolEventKind::kSubmitted;
  index_t job = 0;      ///< job id (CampaignJobSpec::id)
  index_t attempt = 0;  ///< 1-based placed-attempt ordinal; 0 while queued
  units::Seconds at_s;  ///< virtual campaign time
  index_t steps = 0;    ///< cumulative checkpointed steps of the job
  units::Dollars usd;   ///< cumulative spend of the job
  /// Attempt deltas, meaningful on settlement events only (kRequeued, and
  /// kCompleted / kFailed that close a placed attempt).
  index_t delta_steps = 0;
  units::Dollars delta_usd;
  std::string detail;  ///< instance / requeue reason / failure reason
};

/// One event rendered in the canonical line format (no trailing newline):
/// `seq kind job=J att=A t=T steps=S usd=U [d_steps=DS d_usd=DU] [detail]`.
/// ProtocolHistory::canonical() joins these lines; the obs flight recorder
/// reuses the same rendering so a dump diffs cleanly against a history.
[[nodiscard]] std::string protocol_event_line(const ProtocolEvent& event);

/// Append-only total-ordered event log. Single-writer by contract (the
/// engine coordinator); readers run after the campaign returns. That
/// contract — not a lock — is the synchronization: record() must never be
/// called concurrently, so the struct deliberately carries no Mutex and
/// stays out of the thread-safety capability map (DESIGN.md §13). If a
/// future multi-shard service ever shares one history across coordinator
/// threads, it must grow a hemo::Mutex with events GUARDED_BY it.
struct ProtocolHistory {
  std::vector<ProtocolEvent> events;

  /// Appends `event` with the next sequence number.
  void record(ProtocolEvent event);

  /// One line per event, byte-stable for a fixed seeded campaign:
  /// `seq kind job=J att=A t=T steps=S usd=U [d_steps=DS d_usd=DU] [detail]`.
  /// This is the artifact W1 compares across worker counts and the bytes
  /// CI uploads for a failing nemesis schedule.
  [[nodiscard]] std::string canonical() const;
};

}  // namespace hemo::sched
