#include "sched/history.hpp"

#include <sstream>

#include "obs/format.hpp"

namespace hemo::sched {

const char* protocol_event_name(ProtocolEventKind kind) {
  switch (kind) {
    case ProtocolEventKind::kSubmitted: return "submitted";
    case ProtocolEventKind::kPlaced: return "placed";
    case ProtocolEventKind::kPreemption: return "preemption";
    case ProtocolEventKind::kCorruptRestore: return "corrupt_restore";
    case ProtocolEventKind::kGuardStop: return "guard_stop";
    case ProtocolEventKind::kWorkerCrash: return "worker_crash";
    case ProtocolEventKind::kRequeued: return "requeued";
    case ProtocolEventKind::kCompleted: return "completed";
    case ProtocolEventKind::kFailed: return "failed";
  }
  return "?";
}

bool is_mid_attempt(ProtocolEventKind kind) {
  return kind == ProtocolEventKind::kPreemption ||
         kind == ProtocolEventKind::kCorruptRestore ||
         kind == ProtocolEventKind::kGuardStop ||
         kind == ProtocolEventKind::kWorkerCrash;
}

void ProtocolHistory::record(ProtocolEvent event) {
  event.seq = static_cast<index_t>(events.size());
  events.push_back(std::move(event));
}

std::string protocol_event_line(const ProtocolEvent& e) {
  std::ostringstream os;
  os << e.seq << ' ' << protocol_event_name(e.kind) << " job=" << e.job
     << " att=" << e.attempt << " t=" << obs::num(e.at_s.value())
     << " steps=" << e.steps << " usd=" << obs::num(e.usd.value());
  if (e.kind == ProtocolEventKind::kRequeued ||
      e.kind == ProtocolEventKind::kCompleted ||
      e.kind == ProtocolEventKind::kFailed) {
    os << " d_steps=" << e.delta_steps
       << " d_usd=" << obs::num(e.delta_usd.value());
  }
  if (!e.detail.empty()) os << ' ' << e.detail;
  return os.str();
}

std::string ProtocolHistory::canonical() const {
  std::string out;
  for (const ProtocolEvent& e : events) {
    out += protocol_event_line(e);
    out += '\n';
  }
  return out;
}

}  // namespace hemo::sched
