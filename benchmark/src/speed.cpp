#include "speed.hpp"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <ctime>
#include <stdexcept>
#include <string>
#include <vector>

namespace cmsbench {

namespace {

/// The kernel's result goes here, so the compiler keeps the kernel. One
/// per thread: several threads probe at once.
thread_local volatile std::uint64_t t_kernel_misses = 0;

double thread_cpu_ms() {
  timespec ts{};
  ::clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// A 16-way, 1024-set LRU cache model fed 150k accesses of a fixed
/// stream: five in eight walk 64Ki lines in order, the rest hit random
/// lines of 256Ki. Every call starts from an empty cache and executes the
/// same instructions; returns the miss count.
std::uint64_t cache_model_kernel() {
  constexpr std::size_t kSets = 1024, kWays = 16;
  constexpr int kAccesses = 150000;
  thread_local std::vector<std::uint64_t> tag(kSets * kWays);
  thread_local std::vector<std::uint32_t> stamp(kSets * kWays);
  std::fill(tag.begin(), tag.end(), ~std::uint64_t{0});
  std::fill(stamp.begin(), stamp.end(), 0u);
  std::uint64_t x = 7, seq = 0, misses = 0;
  std::uint32_t now = 0;
  for (int i = 0; i < kAccesses; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const std::uint64_t line =
        (x >> 61) < 5 ? (seq++ & 0xFFFF) : ((x >> 33) & 0x3FFFF);
    const std::size_t set = (line % kSets) * kWays;
    std::size_t hit = kWays, lru = 0;
    for (std::size_t w = 0; w < kWays; ++w) {
      if (tag[set + w] == line) hit = w;
      if (stamp[set + w] < stamp[set + lru]) lru = w;
    }
    if (hit == kWays) {
      ++misses;
      hit = lru;
      tag[set + hit] = line;
    }
    stamp[set + hit] = ++now;
  }
  return misses;
}

}  // namespace

double machine_slowdown() {
  const double t0 = thread_cpu_ms();
  t_kernel_misses = cache_model_kernel();
  return (thread_cpu_ms() - t0) / kProbeReferenceMs;
}

double machine_slowdown_on(int cpu) {
  cpu_set_t saved;
  if (::sched_getaffinity(0, sizeof(saved), &saved) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  pin_self(cpu);
  const double s = machine_slowdown();
  ::sched_setaffinity(0, sizeof(saved), &saved);
  return s;
}

void pin_self(int cpu) {
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(static_cast<unsigned>(cpu), &one);
  if (::sched_setaffinity(0, sizeof(one), &one) != 0)
    throw std::runtime_error("cannot bind to CPU " + std::to_string(cpu));
}

SpeedSampler::SpeedSampler(double period_ms) {
  cpu_set_t allowed;
  if (::sched_getaffinity(0, sizeof(allowed), &allowed) != 0)
    throw std::runtime_error("sched_getaffinity failed");
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c)
    if (CPU_ISSET(c, &allowed)) cpus.push_back(c);
  thread_ = std::thread([this, cpus, period_ms] {
    const auto period = std::chrono::duration<double, std::milli>(period_ms);
    auto next = std::chrono::steady_clock::now();
    try {
      for (std::size_t k = 0; !stop_.load(); ++k) {
        samples_.push_back(machine_slowdown_on(cpus[k % cpus.size()]));
        next +=
            std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                period);
        std::this_thread::sleep_until(next);
      }
    } catch (...) {
      error_ = std::current_exception();  // stop() rethrows it
    }
  });
}

SpeedSampler::~SpeedSampler() {
  stop_ = true;
  if (thread_.joinable()) thread_.join();
}

double SpeedSampler::stop() {
  stop_ = true;
  thread_.join();
  if (error_) std::rethrow_exception(error_);
  std::vector<double> s = samples_;
  std::sort(s.begin(), s.end());
  return s.empty() ? 1.0 : s[s.size() / 2];
}

}  // namespace cmsbench
