// Machine speed, measured with a fixed kernel of the benchmark's own.
//
// On a shared host the machine's neighbours slow this repository's
// memory-bound code (simulation, capture, replay) by up to a third, for
// seconds to minutes at a time. The kernel here is a small
// set-associative LRU cache model fed a fixed address stream; it slows by
// the same factor as the repository's code (README.md has the
// measurement). The benchmark runs it next to every timed operation and
// divides the operation's time by the kernel's slowdown. The kernel
// belongs to the benchmark, so no change to the code under test moves it.
#pragma once

#include <atomic>
#include <exception>
#include <thread>
#include <vector>

namespace cmsbench {

/// The kernel's thread-CPU time on the reference machine, an unloaded
/// 4-vCPU Intel Xeon VM, in ms.
inline constexpr double kProbeReferenceMs = 4.0;

/// Runs the kernel once on the calling thread and returns its thread-CPU
/// time over kProbeReferenceMs: 1 at the reference machine's speed, 1.5
/// at two thirds of it. CPU time, not wall time, so that sharing the CPU
/// with another runnable thread does not count as slowness.
double machine_slowdown();

/// machine_slowdown() on CPU `cpu`: the calling thread moves there for
/// the kernel and returns to its previous CPU set after.
double machine_slowdown_on(int cpu);

/// Binds the calling thread to CPU `cpu`.
void pin_self(int cpu);

/// Slowdowns of consecutive operations on one thread: the thread probes
/// once before the first operation and once after each, and an
/// operation's slowdown is the mean of the probes on either side of it.
class SpeedTrack {
 public:
  SpeedTrack() : last_(machine_slowdown()) {}
  /// Call right after an operation; returns its slowdown.
  double after_op() {
    const double next = machine_slowdown();
    const double s = (last_ + next) / 2.0;
    last_ = next;
    return s;
  }

 private:
  double last_;
};

/// A thread that probes each CPU this process may use in turn, one probe
/// every `period_ms`, for work spread over all CPUs (fleet-mix). The
/// probe's thread-CPU time does not count the time it waits for a CPU.
class SpeedSampler {
 public:
  explicit SpeedSampler(double period_ms);
  ~SpeedSampler();
  SpeedSampler(const SpeedSampler&) = delete;
  SpeedSampler& operator=(const SpeedSampler&) = delete;

  /// Stops the thread and returns the median slowdown it measured; throws
  /// what a probe threw. Call once.
  double stop();

 private:
  std::atomic<bool> stop_{false};
  std::vector<double> samples_;
  std::exception_ptr error_;
  std::thread thread_;
};

}  // namespace cmsbench
