// Tiny shared command-line helpers for benches and examples — one
// definition of the campaign flags so `--jobs` / `--profiler` behave
// identically in every binary.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/profiler_mode.hpp"
#include "opt/replay_kernel_mode.hpp"

namespace cms::core {

/// Hard ceiling on explicit worker counts: far above any real machine,
/// low enough that a mistyped value can't build an absurd pool.
inline constexpr unsigned kMaxJobs = 1024;

/// Parse `--jobs N` / `--jobs=N`: campaign worker threads (0 = hardware
/// concurrency). Returns `def` when the flag is absent; a malformed or
/// out-of-range value (non-numeric, signed, padded, > kMaxJobs — e.g. the
/// typo `--jobs --quick`, `--jobs -1` or `--jobs=+5`) warns and keeps
/// `def` rather than silently fanning out to every core. The value must
/// be plain decimal digits: strtoul's tolerance for leading whitespace
/// and a '+'/'-' sign is exactly what this validation wants to reject.
inline unsigned parse_jobs(int argc, char** argv, unsigned def = 1) {
  const auto parse_value = [def](const char* v) -> unsigned {
    bool digits_only = v[0] != '\0';
    for (const char* p = v; *p != '\0'; ++p)
      if (*p < '0' || *p > '9') digits_only = false;
    const unsigned long n = digits_only ? std::strtoul(v, nullptr, 10) : 0;
    if (!digits_only || n > kMaxJobs) {
      std::fprintf(stderr, "warning: ignoring bad --jobs value '%s' (0..%u)\n",
                   v, kMaxJobs);
      return def;
    }
    return static_cast<unsigned>(n);
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--jobs") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr, "warning: --jobs needs a value (0..%u)\n", kMaxJobs);
      return def;
    }
    if (std::strncmp(argv[i], "--jobs=", 7) == 0)
      return parse_value(argv[i] + 7);
  }
  return def;
}

/// True when `flag` (e.g. "--quick") is present.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
}

/// Parse `--profiler MODE` / `--profiler=MODE` where MODE is `fullsim`
/// (one simulation per grid point x run) or `replay` (trace capture +
/// replay; bit-identical profile, grid-times fewer simulations). Returns
/// `def` when absent; unknown modes warn and keep `def`.
inline ProfilerMode parse_profiler(int argc, char** argv,
                                   ProfilerMode def = ProfilerMode::kFullSim) {
  const auto parse_value = [def](const char* v) -> ProfilerMode {
    if (std::strcmp(v, "fullsim") == 0) return ProfilerMode::kFullSim;
    if (std::strcmp(v, "replay") == 0) return ProfilerMode::kTraceReplay;
    std::fprintf(stderr,
                 "warning: ignoring bad --profiler value '%s' "
                 "(fullsim|replay)\n",
                 v);
    return def;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--profiler") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr, "warning: --profiler needs a value (fullsim|replay)\n");
      return def;
    }
    if (std::strncmp(argv[i], "--profiler=", 11) == 0)
      return parse_value(argv[i] + 11);
  }
  return def;
}

/// Parse `--replay-kernel K` / `--replay-kernel=K` where K is `auto`
/// (the fused multi-size replay) or `persize` (legacy one-cache-per-size
/// replay). Both are bit-identical in output — the flag trades
/// wall-clock only. Returns `def` when absent; unknown values warn and
/// keep `def`.
inline opt::ReplayKernel parse_replay_kernel(
    int argc, char** argv, opt::ReplayKernel def = opt::ReplayKernel::kAuto) {
  const auto parse_value = [def](const char* v) -> opt::ReplayKernel {
    if (std::strcmp(v, "auto") == 0) return opt::ReplayKernel::kAuto;
    if (std::strcmp(v, "persize") == 0) return opt::ReplayKernel::kPerSize;
    std::fprintf(stderr,
                 "warning: ignoring bad --replay-kernel value '%s' "
                 "(auto|persize)\n",
                 v);
    return def;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--replay-kernel") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr,
                   "warning: --replay-kernel needs a value "
                   "(auto|persize)\n");
      return def;
    }
    if (std::strncmp(argv[i], "--replay-kernel=", 16) == 0)
      return parse_value(argv[i] + 16);
  }
  return def;
}

/// Parse `FLAG N` / `FLAG=N` as a plain-decimal unsigned 64-bit value.
/// Returns `def` when the flag is absent; malformed values (non-numeric,
/// signed, padded — same digits-only rule as parse_jobs) warn and keep
/// `def`.
inline std::uint64_t parse_u64_flag(int argc, char** argv, const char* flag,
                                    std::uint64_t def = 0) {
  const auto parse_value = [def, flag](const char* v) -> std::uint64_t {
    bool digits_only = v[0] != '\0';
    for (const char* p = v; *p != '\0'; ++p)
      if (*p < '0' || *p > '9') digits_only = false;
    errno = 0;
    const unsigned long long n = digits_only ? std::strtoull(v, nullptr, 10) : 0;
    // An overflowing all-digits value saturates silently in strtoull;
    // treat it like any other malformed input instead.
    if (!digits_only || errno == ERANGE) {
      std::fprintf(stderr, "warning: ignoring bad %s value '%s'\n", flag, v);
      return def;
    }
    return n;
  };
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr, "warning: %s needs a value\n", flag);
      return def;
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=')
      return parse_value(argv[i] + flag_len + 1);
  }
  return def;
}

/// Planning-service store budget: `--service-budget-bytes N` caps the
/// trace store's on-disk footprint (LRU eviction above it; 0 = unlimited).
inline std::uint64_t parse_service_budget_bytes(int argc, char** argv,
                                                std::uint64_t def = 0) {
  return parse_u64_flag(argc, argv, "--service-budget-bytes", def);
}

/// Planning-service store budget: `--service-budget-entries N` caps the
/// trace store's entry count (LRU eviction above it; 0 = unlimited).
inline std::uint64_t parse_service_budget_entries(int argc, char** argv,
                                                  std::uint64_t def = 0) {
  return parse_u64_flag(argc, argv, "--service-budget-entries", def);
}

/// Planning-service bench/driver: `--service-clients N` concurrent client
/// threads hammering the plan endpoint.
inline unsigned parse_service_clients(int argc, char** argv,
                                      unsigned def = 4) {
  const std::uint64_t n =
      parse_u64_flag(argc, argv, "--service-clients", def);
  if (n == 0 || n > kMaxJobs) {
    std::fprintf(stderr,
                 "warning: ignoring bad --service-clients value (1..%u)\n",
                 kMaxJobs);
    return def;
  }
  return static_cast<unsigned>(n);
}

/// Parse `FLAG S` / `FLAG=S` as a raw string. Returns `def` when absent.
inline std::string parse_string_flag(int argc, char** argv, const char* flag,
                                     std::string def = {}) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "warning: %s needs a value\n", flag);
      return def;
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=')
      return argv[i] + flag_len + 1;
  }
  return def;
}

/// True when `flag` is present either bare, as `FLAG VALUE` or `FLAG=VALUE`.
inline bool has_value_flag(int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) return true;
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=')
      return true;
  }
  return false;
}

/// Parse `--port N` / `--port=N`: TCP listening port for socket-mode
/// servers (0 = kernel-assigned ephemeral port; pair with `--port-file`).
/// Values above 65535 warn and keep `def`. The flag's PRESENCE (even
/// `--port 0`) is what switches plan_server into socket mode — probe it
/// with has_value_flag(argc, argv, "--port").
inline std::uint16_t parse_port(int argc, char** argv, std::uint16_t def = 0) {
  const std::uint64_t n = parse_u64_flag(argc, argv, "--port", def);
  if (n > 65535) {
    std::fprintf(stderr, "warning: ignoring bad --port value (0..65535)\n");
    return def;
  }
  return static_cast<std::uint16_t>(n);
}

/// Parse `--port-file PATH`: where a socket server writes its resolved
/// listening port (one decimal line) once it accepts connections —
/// the rendezvous for `--port 0` (bench harnesses poll this file).
inline std::string parse_port_file(int argc, char** argv) {
  return parse_string_flag(argc, argv, "--port-file");
}

/// Parse `--net-workers N`: socket-server worker threads (each blocked
/// worker is one request in flight — size it at least as large as the
/// burst you want sweep-coalesced). Same 1..kMaxJobs bound as
/// --service-clients.
inline unsigned parse_net_workers(int argc, char** argv, unsigned def = 8) {
  const std::uint64_t n = parse_u64_flag(argc, argv, "--net-workers", def);
  if (n == 0 || n > kMaxJobs) {
    std::fprintf(stderr,
                 "warning: ignoring bad --net-workers value (1..%u)\n",
                 kMaxJobs);
    return def;
  }
  return static_cast<unsigned>(n);
}

/// Parse `--max-pending N`: socket-server admission-queue bound; arrivals
/// beyond it are shed with a `busy` error line. 0 (shed everything) is
/// rejected as surely a mistake.
inline std::size_t parse_max_pending(int argc, char** argv,
                                     std::size_t def = 256) {
  const std::uint64_t n = parse_u64_flag(argc, argv, "--max-pending", def);
  if (n == 0) {
    std::fprintf(stderr,
                 "warning: ignoring bad --max-pending value (>= 1)\n");
    return def;
  }
  return static_cast<std::size_t>(n);
}

/// Parse `--coalesce-window-ms X`: how long a sweep leader holds its
/// union sweep open for concurrent requests to merge into — an
/// unconditional hold, i.e. X ms of extra latency per cache-missing
/// sweep bought against a guaranteed burst merge (see
/// svc::PlanningServiceConfig::coalesce_window_ms). Must be finite and
/// >= 0; malformed values warn and keep `def`.
inline double parse_coalesce_window_ms(int argc, char** argv,
                                       double def = 0.0) {
  const std::string v =
      parse_string_flag(argc, argv, "--coalesce-window-ms", "");
  if (v.empty()) return def;
  char* end = nullptr;
  const double ms = std::strtod(v.c_str(), &end);
  // !(ms >= 0) also catches NaN; the cap catches inf and absurd typos.
  if (end != v.c_str() + v.size() || !(ms >= 0.0) || ms > 60'000.0) {
    std::fprintf(
        stderr,
        "warning: ignoring bad --coalesce-window-ms value '%s' "
        "(finite ms in [0, 60000])\n",
        v.c_str());
    return def;
  }
  return ms;
}

/// Parse `--plan-cache MODE` / `--plan-cache=MODE` where MODE is `off`
/// (recompute every plan), `mem` (in-process memo only) or `disk`
/// (memo + persistent `.cmsplan` entries in the trace-store directory).
/// Returns `def` when absent; unknown modes warn and keep `def`.
inline PlanCacheMode parse_plan_cache(
    int argc, char** argv, PlanCacheMode def = PlanCacheMode::kDisk) {
  const auto parse_value = [def](const char* v) -> PlanCacheMode {
    if (std::strcmp(v, "off") == 0) return PlanCacheMode::kOff;
    if (std::strcmp(v, "mem") == 0) return PlanCacheMode::kMemory;
    if (std::strcmp(v, "disk") == 0) return PlanCacheMode::kDisk;
    std::fprintf(stderr,
                 "warning: ignoring bad --plan-cache value '%s' "
                 "(off|mem|disk)\n",
                 v);
    return def;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--plan-cache") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr,
                   "warning: --plan-cache needs a value (off|mem|disk)\n");
      return def;
    }
    if (std::strncmp(argv[i], "--plan-cache=", 13) == 0)
      return parse_value(argv[i] + 13);
  }
  return def;
}

/// Plan-cache budget: `--plan-cache-budget-bytes N` caps each cache
/// tier's footprint (LRU eviction above it; 0 = unlimited).
inline std::uint64_t parse_plan_cache_budget_bytes(int argc, char** argv,
                                                   std::uint64_t def = 0) {
  return parse_u64_flag(argc, argv, "--plan-cache-budget-bytes", def);
}

/// Plan-cache budget: `--plan-cache-budget-entries N` caps each cache
/// tier's entry count (LRU eviction above it; 0 = unlimited).
inline std::uint64_t parse_plan_cache_budget_entries(int argc, char** argv,
                                                     std::uint64_t def = 0) {
  return parse_u64_flag(argc, argv, "--plan-cache-budget-entries", def);
}

/// Parse `--trace-dir DIR` / `--trace-dir=DIR`: directory of the
/// persistent trace store. Empty (the default) means no store — captures
/// stay in memory.
inline std::string parse_trace_dir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace-dir") == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "warning: --trace-dir needs a directory\n");
      return {};
    }
    if (std::strncmp(argv[i], "--trace-dir=", 12) == 0) return argv[i] + 12;
  }
  return {};
}

/// Parse `--trace MODE` / `--trace=MODE` where MODE is `off` (ignore the
/// store), `ro` (serve hits, never write) or `rw` (serve hits, write back
/// misses). Returns `def` when absent — read-write, so `--trace-dir` alone
/// gives the expected capture-once behavior; unknown modes warn and keep
/// `def`.
inline TraceMode parse_trace_mode(int argc, char** argv,
                                  TraceMode def = TraceMode::kReadWrite) {
  const auto parse_value = [def](const char* v) -> TraceMode {
    if (std::strcmp(v, "off") == 0) return TraceMode::kOff;
    if (std::strcmp(v, "ro") == 0) return TraceMode::kReadOnly;
    if (std::strcmp(v, "rw") == 0) return TraceMode::kReadWrite;
    std::fprintf(stderr,
                 "warning: ignoring bad --trace value '%s' (off|ro|rw)\n", v);
    return def;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--trace") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr, "warning: --trace needs a value (off|ro|rw)\n");
      return def;
    }
    if (std::strncmp(argv[i], "--trace=", 8) == 0)
      return parse_value(argv[i] + 8);
  }
  return def;
}

/// Parse `--store-l2-dir DIR` / `--store-l2-dir=DIR`: directory of the
/// far (shared) store tier. Empty (the default) means no L2 — the local
/// --trace-dir is the whole store.
inline std::string parse_store_l2_dir(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--store-l2-dir") == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "warning: --store-l2-dir needs a directory\n");
      return {};
    }
    if (std::strncmp(argv[i], "--store-l2-dir=", 15) == 0)
      return argv[i] + 15;
  }
  return {};
}

/// Parse `--store-l2 MODE` / `--store-l2=MODE` where MODE is `off`
/// (ignore the L2 dir), `ro` (read through, never write through — a
/// frozen shared tier), `rw` (read + write through) or a
/// `tcp://host:port` endpoint (sugar for a read-write networked far
/// tier; the endpoint itself is picked up by parse_store_l2_target).
/// Returns `def` when absent — read-write, so `--store-l2-dir` alone
/// gives the expected capture-once-globally behavior; unknown modes
/// warn and keep `def`.
inline StoreL2Mode parse_store_l2(int argc, char** argv,
                                  StoreL2Mode def = StoreL2Mode::kReadWrite) {
  const auto parse_value = [def](const char* v) -> StoreL2Mode {
    if (std::strcmp(v, "off") == 0) return StoreL2Mode::kOff;
    if (std::strcmp(v, "ro") == 0) return StoreL2Mode::kReadOnly;
    if (std::strcmp(v, "rw") == 0) return StoreL2Mode::kReadWrite;
    if (std::strncmp(v, "tcp://", 6) == 0) return StoreL2Mode::kReadWrite;
    std::fprintf(stderr,
                 "warning: ignoring bad --store-l2 value '%s' "
                 "(off|ro|rw|tcp://host:port)\n",
                 v);
    return def;
  };
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--store-l2") == 0) {
      if (i + 1 < argc) return parse_value(argv[i + 1]);
      std::fprintf(stderr, "warning: --store-l2 needs a value (off|ro|rw)\n");
      return def;
    }
    if (std::strncmp(argv[i], "--store-l2=", 11) == 0)
      return parse_value(argv[i] + 11);
  }
  return def;
}

/// The far-tier TARGET the flags describe: `--store-l2-dir` verbatim
/// (a directory, or a `tcp://host:port` endpoint — pair with
/// `--store-l2 ro` for a frozen remote), else a `tcp://` value given
/// directly to `--store-l2` (the common one-flag networked spelling
/// `--store-l2 tcp://host:port`), else "". open_store_backend dispatches
/// on the tcp:// prefix.
inline std::string parse_store_l2_target(int argc, char** argv) {
  const std::string dir = parse_store_l2_dir(argc, argv);
  if (!dir.empty()) return dir;
  const std::string mode = parse_string_flag(argc, argv, "--store-l2");
  if (mode.rfind("tcp://", 0) == 0) return mode;
  return {};
}

}  // namespace cms::core
