#include "microbench/pingpong.hpp"

#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "cluster/hardware.hpp"
#include "obs/profile.hpp"

namespace hemo::microbench {

std::vector<real_t> default_message_sizes(real_t max_bytes) {
  HEMO_REQUIRE(max_bytes >= 1.0, "max_bytes must be >= 1");
  std::vector<real_t> sizes;
  sizes.push_back(0.0);
  for (real_t s = 1.0; s <= max_bytes; s *= 2.0) sizes.push_back(s);
  return sizes;
}

std::vector<PingPongSample> simulated_pingpong(
    const cluster::InstanceProfile& profile, bool internode,
    const std::vector<real_t>& sizes, index_t sample) {
  cluster::Interconnect net(profile);
  std::vector<PingPongSample> out;
  out.reserve(sizes.size());
  for (real_t s : sizes) {
    out.push_back(PingPongSample{
        s, net.measured_pingpong(units::Bytes(s), internode, sample)
               .value()});
  }
  return out;
}

namespace {

/// Single-producer single-consumer mailbox used by the threaded pingpong.
/// `turn` is a two-party turnstile: each side release-stores the other's
/// turn after touching the buffer and acquire-spins for its own, so the
/// buffer handoff is ordered without a lock (DESIGN.md §13).
struct Mailbox {
  std::atomic<int> turn{0};  // atomic-ok(release/acquire SPSC turnstile)
  std::vector<char> buffer;
};

}  // namespace

std::vector<PingPongSample> run_pingpong_local(
    const std::vector<real_t>& sizes, index_t iterations) {
  HEMO_REQUIRE(iterations >= 1, "need at least one iteration");
  const obs::Phase obs_span("pingpong_local", "microbench", [&] {
    return obs::TraceArgs{{"sizes", std::to_string(sizes.size())},
                          {"iterations", std::to_string(iterations)}};
  });
  using Clock = std::chrono::steady_clock;
  std::vector<PingPongSample> out;
  out.reserve(sizes.size());

  for (real_t size : sizes) {
    const auto bytes = static_cast<std::size_t>(size);
    Mailbox box;
    box.buffer.assign(std::max<std::size_t>(bytes, 1), 1);
    std::vector<char> ping_local(std::max<std::size_t>(bytes, 1), 2);
    std::vector<char> pong_local(std::max<std::size_t>(bytes, 1), 3);

    std::thread pong([&] {
      for (index_t i = 0; i < iterations; ++i) {
        while (box.turn.load(std::memory_order_acquire) != 1) {
          // On a single-core host a pure spin burns whole scheduler
          // quanta before the peer can run; yielding keeps the handoff
          // at context-switch cost so message size stays measurable.
          std::this_thread::yield();
        }
        if (bytes > 0) {
          std::memcpy(pong_local.data(), box.buffer.data(), bytes);
          std::memcpy(box.buffer.data(), pong_local.data(), bytes);
        }
        box.turn.store(0, std::memory_order_release);
      }
    });

    const auto t0 = Clock::now();
    for (index_t i = 0; i < iterations; ++i) {
      if (bytes > 0) {
        std::memcpy(box.buffer.data(), ping_local.data(), bytes);
      }
      box.turn.store(1, std::memory_order_release);
      while (box.turn.load(std::memory_order_acquire) != 0) {
        std::this_thread::yield();
      }
      if (bytes > 0) {
        std::memcpy(ping_local.data(), box.buffer.data(), bytes);
      }
    }
    const real_t elapsed_us =
        std::chrono::duration<real_t, std::micro>(Clock::now() - t0).count();
    pong.join();

    // One round trip carries the message both ways; report one-way time.
    out.push_back(PingPongSample{
        size, elapsed_us / static_cast<real_t>(iterations) / 2.0});
  }
  return out;
}

}  // namespace hemo::microbench
