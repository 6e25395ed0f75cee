#include "sched/guard.hpp"

#include <algorithm>
#include <cmath>

#include "util/rng.hpp"

namespace hemo::sched {

ResolutionScale::ResolutionScale(real_t factor) : factor_(factor) {
  HEMO_REQUIRE(factor > 0.0, "resolution factor must be positive");
  surface_ = std::cbrt(factor) * std::cbrt(factor);
}

units::Seconds ResolutionScale::step_seconds(
    const cluster::ExecutionResult& result) const {
  if (factor_ == 1.0) return result.step_seconds;
  const units::Seconds noise_free = result.critical.total();
  if (noise_free.value() <= 0.0) return result.step_seconds;
  const real_t noise = result.step_seconds / noise_free;
  const units::Seconds scaled =
      (result.critical.mem_s + result.critical.overhead_s +
       result.critical.xfer_s) * factor_ +
      (result.critical.intra_s + result.critical.inter_s) * surface_;
  return scaled * noise;
}

AttemptResult simulate_attempt(const AttemptContext& ctx) {
  HEMO_REQUIRE(ctx.plan != nullptr && ctx.profile != nullptr,
               "attempt context needs a plan and a profile");
  HEMO_REQUIRE(ctx.steps >= 1, "attempt needs at least one step");
  HEMO_REQUIRE(ctx.n_chunks >= 1, "attempt needs at least one chunk");

  // The critical task's composition depends only on the plan and the
  // instance, and the resolution scale only on the job, so both are built
  // once here; each chunk then draws only its noise.
  const cluster::VirtualCluster vc(*ctx.profile);
  const cluster::CriticalPath path = vc.critical_path(*ctx.plan);
  const ResolutionScale scale(ctx.resolution_factor);
  Xoshiro256 rng(ctx.seed);
  AttemptResult res;

  const index_t chunk_steps = (ctx.steps + ctx.n_chunks - 1) / ctx.n_chunks;
  units::Seconds occupied_s;  ///< paid allocation time (compute + losses)
  units::Seconds backoff_s;   ///< unpaid waits between spot retries
  index_t done = 0;

  while (done < ctx.steps) {
    const index_t this_steps = std::min(chunk_steps, ctx.steps - done);
    const cluster::MeasurementContext when{rng.below(7), rng.below(24),
                                           rng.below(1 << 20)};
    const auto exec =
        vc.execute(path, ctx.plan->total_points, this_steps, when);
    const units::Seconds chunk_s =
        scale.step_seconds(exec) *
        static_cast<real_t>(this_steps) * ctx.faults.slowdown_factor;

    // Injected worker crash: the process dies partway through the chunk
    // regardless of tenancy. The allocation is paid up to the strike, the
    // in-flight chunk is lost, and the attempt ends at the last durable
    // checkpoint — kill+requeue recovery is the engine's job. Draws are
    // gated on the rate so disabled injection leaves the stream intact.
    if (ctx.faults.worker_crash_probability > 0.0 &&
        rng.uniform() < ctx.faults.worker_crash_probability) {
      occupied_s += chunk_s * rng.uniform();
      res.worker_crashed = true;
      res.events.push_back({ProtocolEventKind::kWorkerCrash,
                            occupied_s + backoff_s, done});
      break;
    }

    if (ctx.placement.spot) {
      // Poisson interruption arrivals over the chunk's wall time, plus any
      // injected interruption storm.
      const real_t p_preempt =
          1.0 -
          std::exp(-ctx.spot.preemptions_per_hour.value() * chunk_s.value() /
                   3600.0) +
          ctx.faults.extra_preemption_probability;
      const real_t draw = rng.uniform();
      const real_t strike_fraction = rng.uniform();
      if (draw < p_preempt) {
        // Struck partway through: the in-flight chunk since the last
        // checkpoint is lost; pay for the wasted work and the restart.
        occupied_s +=
            chunk_s * strike_fraction + ctx.spot.restart_overhead_s;
        ++res.preemptions;
        res.events.push_back({ProtocolEventKind::kPreemption,
                              occupied_s + backoff_s, done});
        if (res.preemptions > ctx.max_preemptions) {
          res.retries_exhausted = true;
          break;
        }
        backoff_s += ctx.backoff_base_s *
                     std::pow(2.0, static_cast<real_t>(res.preemptions - 1));
        // Injected checkpoint corruption: the state read back on resume is
        // bad, so fall back to the checkpoint before it — the previously
        // completed chunk must be redone and a second reload is paid. The
        // draw is gated on the rate so disabled injection leaves the RNG
        // stream (and therefore every uninjected result) untouched. The
        // redone chunk's original compute stays counted: it was real work
        // the corruption burned, and the throughput fed to the refinement
        // tracker should dip accordingly.
        if (ctx.faults.checkpoint_corruption_rate > 0.0 &&
            rng.uniform() < ctx.faults.checkpoint_corruption_rate) {
          done = std::max<index_t>(0, done - chunk_steps);
          occupied_s += ctx.spot.restart_overhead_s;
          ++res.checkpoint_corruptions;
          res.events.push_back({ProtocolEventKind::kCorruptRestore,
                                occupied_s + backoff_s, done});
        }
        continue;  // resume from the checkpoint: redo this chunk
      }
    }

    occupied_s += chunk_s;
    res.compute_seconds += chunk_s;
    done += this_steps;

    // Progress report at the checkpoint: the model-driven job limit. The
    // pace check uses paid allocation time (preemption losses included,
    // unpaid backoff waits excluded) — the guard protects spend.
    const real_t fraction =
        static_cast<real_t>(done) / static_cast<real_t>(ctx.steps);
    if (done < ctx.steps && ctx.guard.should_abort(occupied_s, fraction)) {
      res.overrun_aborted = true;
      res.events.push_back({ProtocolEventKind::kGuardStop,
                            occupied_s + backoff_s, done});
      break;
    }
  }

  res.steps_done = done;
  res.sim_seconds = occupied_s + backoff_s;
  res.dollars = units::to_hours(occupied_s) * ctx.placement.cost_rate_per_hour;
  if (res.compute_seconds.value() > 0.0) {
    const real_t points = static_cast<real_t>(ctx.plan->total_points) *
                          ctx.resolution_factor;
    res.measured_mflups =
        units::Mflups(points * static_cast<real_t>(done) /
                      (res.compute_seconds.value() * 1e6));
  }
  return res;
}

}  // namespace hemo::sched
