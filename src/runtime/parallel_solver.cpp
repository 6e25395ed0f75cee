#include "runtime/parallel_solver.hpp"

#include <algorithm>
#include <barrier>
#include <thread>
#include <utility>

#include "lbm/point_update.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/profile.hpp"

namespace hemo::runtime {

using lbm::kQ;

namespace {

/// A distribution array of `rows` rows at rest equilibrium (rho = 1,
/// u = 0), written in one pass.
std::vector<double> rest_array(lbm::Layout layout, index_t rows) {
  std::array<double, kQ> rest;
  for (index_t q = 0; q < kQ; ++q) {
    rest[static_cast<std::size_t>(q)] =
        lbm::equilibrium<double>(q, 1.0, 0.0, 0.0, 0.0);
  }
  std::vector<double> f;
  f.reserve(static_cast<std::size_t>(rows * kQ));
  if (layout == lbm::Layout::kAoS) {
    for (index_t s = 0; s < rows; ++s) {
      f.insert(f.end(), rest.begin(), rest.end());
    }
  } else {
    for (const double value : rest) {
      f.insert(f.end(), static_cast<std::size_t>(rows), value);
    }
  }
  return f;
}

}  // namespace

/// noexcept callable the barrier runs on phase completion (while every
/// rank thread is parked inside the barrier).
struct EpochCallback {
  ParallelSolver* solver;
  void operator()() noexcept { solver->on_epoch(); }
};

ParallelSolver::ParallelSolver(const lbm::FluidMesh& mesh,
                               const decomp::Partition& partition,
                               const lbm::SolverParams& params,
                               std::span<const geometry::InletSpec> inlets,
                               RuntimeOptions options)
    : mesh_(&mesh),
      inlets_(inlets.begin(), inlets.end()),
      partition_(partition),
      layout_(params.kernel.layout),
      options_(std::move(options)),
      controller_(options_.rebalance) {
  HEMO_REQUIRE(params.kernel.propagation == lbm::Propagation::kAB &&
                   params.kernel.precision == lbm::Precision::kDouble &&
                   params.kernel.path == lbm::KernelPath::kSegmented,
               "ParallelSolver supports AB + double on the segmented "
               "kernel path");
  // The serial solver's binding: the ranks share the cache, so the
  // streaming-store test sizes the whole mesh, as the serial solver does.
  binding_ = lbm::bind_sweep<double>(params, mesh.num_points());

  build_runtime_structures();
  timings_.assign(states_.size(), RankTimings{});
  window_start_busy_.assign(states_.size(), 0.0);
}

ParallelSolver::~ParallelSolver() = default;

void ParallelSolver::build_runtime_structures() {
  topo_ = harvey::build_halo_exchange(*mesh_, partition_);
  const std::size_t n_ranks = topo_.ranks.size();

  // Inlet targets per owned position; the global tables live only here.
  const auto bc_velocity = lbm::inlet_velocities<double>(*mesh_, inlets_);
  const auto bc_pulse = lbm::inlet_pulse_params<double>(*mesh_, inlets_);
  states_.resize(n_ranks);
  for (std::size_t r = 0; r < n_ranks; ++r) {
    const lbm::SegmentedMesh& view = topo_.ranks[r];
    RankState& rank = states_[r];
    rank.f = rest_array(layout_, view.num_slots());
    rank.f2.assign(rank.f.size(), 0.0);
    const auto owned = static_cast<std::size_t>(view.num_points());
    rank.bc_velocity.resize(owned);
    rank.bc_pulse.resize(owned);
    for (std::size_t i = 0; i < owned; ++i) {
      const auto p =
          static_cast<std::size_t>(view.point_at(static_cast<index_t>(i)));
      rank.bc_velocity[i] = bc_velocity[p];
      rank.bc_pulse[i] = bc_pulse[p];
    }
  }

  mailboxes_.clear();
  out_channels_.assign(n_ranks, {});
  in_channels_.assign(n_ranks, {});
  neighbors_of_.assign(n_ranks, {});
  for (std::size_t c = 0; c < topo_.channels.size(); ++c) {
    const harvey::HaloChannel& channel = topo_.channels[c];
    auto box = std::make_unique<Mailbox>();
    box->channel = static_cast<index_t>(c);
    box->buffer.assign(static_cast<std::size_t>(channel.payload_values()),
                       0.0);
    // A fresh mailbox carries the current epoch so the first await after a
    // mid-run rebuild still sees seq < t + 1 until the owner publishes.
    box->seq.store(timestep_, std::memory_order_relaxed);
    mailboxes_.push_back(std::move(box));
    out_channels_[static_cast<std::size_t>(channel.from)].push_back(
        static_cast<index_t>(c));
    in_channels_[static_cast<std::size_t>(channel.to)].push_back(
        static_cast<index_t>(c));
    neighbors_of_[static_cast<std::size_t>(channel.from)].push_back(
        channel.to);
  }
}

std::vector<double> ParallelSolver::gather_state() const {
  const index_t n = mesh_->num_points();
  std::vector<double> state(static_cast<std::size_t>(n * kQ));
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const lbm::SegmentedMesh& view = topo_.ranks[r];
    for (index_t i = 0; i < view.num_points(); ++i) {
      const index_t p = view.point_at(i);
      for (index_t q = 0; q < kQ; ++q) {
        state[at(n, p, q)] = states_[r].f[at(view.num_slots(), i, q)];
      }
    }
  }
  return state;
}

void ParallelSolver::scatter_state(std::span<const double> state) {
  const index_t n = mesh_->num_points();
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const lbm::SegmentedMesh& view = topo_.ranks[r];
    for (index_t i = 0; i < view.num_points(); ++i) {
      const index_t p = view.point_at(i);
      for (index_t q = 0; q < kQ; ++q) {
        states_[r].f[at(view.num_slots(), i, q)] = state[at(n, p, q)];
      }
    }
  }
}

std::vector<double> ParallelSolver::export_state() const {
  return gather_state();
}

void ParallelSolver::restore_state(std::span<const double> state,
                                   index_t timestep) {
  HEMO_REQUIRE(static_cast<index_t>(state.size()) ==
                   mesh_->num_points() * kQ,
               "restore_state: state size must be num_points * kQ");
  HEMO_REQUIRE(timestep >= 0, "restore_state: negative timestep");
  scatter_state(state);
  timestep_ = timestep;
  for (auto& box : mailboxes_) {
    box->seq.store(timestep_, std::memory_order_relaxed);
  }
}

void ParallelSolver::rank_step(std::size_t r, index_t t) {
  RankState& rank = states_[r];
  const lbm::SegmentedMesh& view = topo_.ranks[r];
  RankTimings& timing = timings_[r];
  const lbm::Sweep<double> sweep =
      binding_.sweep(view, rank.f.data(), rank.f2.data(),
                     rank.bc_velocity.data(), rank.bc_pulse.data(), t);

  // Each phase adds its wall time to this rank's RankTimings; swap is
  // profiled but charged to no term.
  {
    const obs::Phase phase("pack", &timing.pack_s);
    for (const index_t c : out_channels_[r]) {
      Mailbox& box = *mailboxes_[static_cast<std::size_t>(c)];
      harvey::pack_channel(
          topo_.channels[static_cast<std::size_t>(box.channel)], layout_,
          rank.f, box.buffer);
      box.seq.store(t + 1, std::memory_order_release);
    }
  }

  // Interior overlap window: no position before frontier_begin() gathers
  // from a ghost slot, so this compute proceeds while neighbor ranks are
  // still publishing.
  {
    const obs::Phase phase("interior", &timing.mem_s);
    binding_.bulk[0](sweep, 0, view.bulk_count());
    // Streaming stores are weakly ordered: fence them ahead of the
    // barrier that ends the step.
    if (binding_.nt_stores) lbm::simd::store_fence(binding_.backend);
    binding_.boundary[0](sweep, view.bulk_count(), view.frontier_begin());
  }

  for (const index_t c : in_channels_[r]) {
    Mailbox& box = *mailboxes_[static_cast<std::size_t>(c)];
    {
      const obs::Phase phase("await", &timing.wait_s);
      while (box.seq.load(std::memory_order_acquire) < t + 1) {
        std::this_thread::yield();
      }
    }
    const obs::Phase phase("unpack", &timing.unpack_s);
    harvey::unpack_channel(
        topo_.channels[static_cast<std::size_t>(box.channel)], layout_,
        box.buffer, rank.f);
  }

  {
    const obs::Phase phase("frontier", &timing.mem_s);
    binding_.boundary[0](sweep, view.frontier_begin(), view.num_points());
  }

  {
    const obs::Phase phase("swap");
    rank.f.swap(rank.f2);
  }
  ++timing.steps;
}

void ParallelSolver::on_epoch() noexcept {
  ++timestep_;
  ++window_steps_;
  if (window_steps_ < options_.rebalance.window) return;
  window_steps_ = 0;

  std::vector<real_t> window_busy(states_.size(), 0.0);
  for (std::size_t r = 0; r < states_.size(); ++r) {
    window_busy[r] = timings_[r].busy_s() - window_start_busy_[r];
    window_start_busy_[r] = timings_[r].busy_s();
  }

  auto& registry = obs::MetricsRegistry::global();
  real_t max_busy = 0.0, sum_busy = 0.0;
  for (std::size_t r = 0; r < states_.size(); ++r) {
    registry.observe("runtime_window_busy_seconds", window_busy[r],
                     {{"workload", options_.workload},
                      {"rank", std::to_string(r)}});
    max_busy = std::max(max_busy, window_busy[r]);
    sum_busy += window_busy[r];
  }
  const real_t mean_busy = sum_busy / static_cast<real_t>(states_.size());
  registry.set("runtime_measured_imbalance",
               mean_busy > 0.0 ? max_busy / mean_busy : 1.0,
               {{"workload", options_.workload}});
  registry.add("runtime_windows_total", 1.0,
               {{"workload", options_.workload}});

  const auto plan =
      controller_.observe_window(window_busy, partition_, neighbors_of_);
  if (plan) {
    apply_migration(*plan);
    registry.add("runtime_migrations_total", 1.0,
                 {{"workload", options_.workload}});
    HEMO_LOG_INFO("runtime rebalance: moved %td points from rank %d to "
                  "rank %d at step %td",
                  plan->count, plan->from, plan->to, timestep_);
  }
}

void ParallelSolver::apply_migration(const MigrationPlan& plan) {
  const std::vector<double> state = gather_state();
  partition_ = decomp::migrate_block(partition_, plan.from, plan.to,
                                     plan.count);
  build_runtime_structures();
  scatter_state(state);
  ++rebalance_count_;
}

void ParallelSolver::request_migration(std::int32_t from, std::int32_t to,
                                       index_t count) {
  apply_migration(MigrationPlan{from, to, count});
}

void ParallelSolver::run(index_t n) {
  HEMO_REQUIRE(n >= 0, "negative step count");
  if (n == 0) return;
  const auto n_ranks = static_cast<std::ptrdiff_t>(states_.size());
  // The completion step runs while every rank thread is parked inside the
  // barrier, which is the happens-before edge the shared-state writes in
  // on_epoch() rely on (DESIGN.md §13).
  std::barrier<EpochCallback> sync(  // sync-ok(lockstep epoch barrier)
      n_ranks, EpochCallback{this});

  const obs::Phase run_phase("parallel_run", "runtime", [&] {
    return obs::TraceArgs{
        {"ranks", obs::trace_num(static_cast<real_t>(n_ranks))},
        {"steps", obs::trace_num(static_cast<real_t>(n))}};
  });

  const index_t t0 = timestep_;
  std::vector<std::jthread> threads;
  threads.reserve(states_.size());
  for (std::size_t r = 0; r < states_.size(); ++r) {
    threads.emplace_back([this, r, t0, n, &sync] {
      obs::set_thread_label("rank" + std::to_string(r));
      for (index_t s = 0; s < n; ++s) {
        // timestep_ is written only by the barrier completion step, which
        // happens-before every thread's release from the wait — reading it
        // here is race-free and always equals t0 + s.
        rank_step(r, t0 + s);
        sync.arrive_and_wait();
      }
    });
  }
  threads.clear();  // join all ranks
}

lbm::Moments<real_t> ParallelSolver::moments_at(index_t global_point) const {
  HEMO_REQUIRE(global_point >= 0 && global_point < mesh_->num_points(),
               "point index out of range");
  const auto r = static_cast<std::size_t>(
      partition_.task_of[static_cast<std::size_t>(global_point)]);
  const index_t s = static_cast<index_t>(
      topo_.owner_slot[static_cast<std::size_t>(global_point)]);
  const index_t rows = topo_.ranks[r].num_slots();
  std::array<double, kQ> g;
  for (index_t q = 0; q < kQ; ++q) {
    g[static_cast<std::size_t>(q)] = states_[r].f[at(rows, s, q)];
  }
  const auto m = lbm::moments<double>(std::span<const double, kQ>(g));
  return lbm::Moments<real_t>{m.rho, m.ux, m.uy, m.uz};
}

real_t ParallelSolver::total_mass() const {
  real_t mass = 0.0;
  for (std::size_t r = 0; r < states_.size(); ++r) {
    const lbm::SegmentedMesh& view = topo_.ranks[r];
    for (index_t i = 0; i < view.num_points(); ++i) {
      for (index_t q = 0; q < kQ; ++q) {
        mass += states_[r].f[at(view.num_slots(), i, q)];
      }
    }
  }
  return mass;
}

}  // namespace hemo::runtime
