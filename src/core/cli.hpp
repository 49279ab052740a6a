// Shared command-line helpers for benches and examples, so each flag
// behaves identically in every binary. Every value flag goes through one
// lookup (flag_value), one digits-only integer rule with an inclusive range
// (parse_u64_flag) or one choice table per mode enum (choice_value). A bad
// value warns, naming the flag, the value and what is accepted, and keeps
// the default.
#pragma once

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <string>

#include "core/profiler_mode.hpp"

namespace cms::core {

/// Hard ceiling on explicit worker counts: far above any real machine,
/// low enough that a mistyped value can't build an absurd pool.
inline constexpr unsigned kMaxJobs = 1024;

/// The value of `FLAG V` / `FLAG=V`, or nullptr when absent. The first
/// occurrence wins; a trailing FLAG with no value warns and counts as
/// absent. A shared prefix is not the flag (`--port-file` is not `--port`).
inline const char* flag_value(int argc, char** argv, const char* flag) {
  const std::size_t flag_len = std::strlen(flag);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], flag) == 0) {
      if (i + 1 < argc) return argv[i + 1];
      std::fprintf(stderr, "warning: %s needs a value\n", flag);
      return nullptr;
    }
    if (std::strncmp(argv[i], flag, flag_len) == 0 &&
        argv[i][flag_len] == '=')
      return argv[i] + flag_len + 1;
  }
  return nullptr;
}

/// True when `flag` (e.g. "--quick") is present.
inline bool has_flag(int argc, char** argv, const char* flag) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], flag) == 0) return true;
  return false;
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

/// Parse `FLAG S` / `FLAG=S` as a raw string. Returns `def` when absent.
inline std::string parse_string_flag(int argc, char** argv, const char* flag,
                                     std::string def = {}) {
  const char* v = flag_value(argc, argv, flag);
  return v != nullptr ? std::string(v) : def;
}

/// Parse `FLAG N` / `FLAG=N` as a decimal in [lo, hi]; `def` when absent
/// or bad. Only plain digits count: strtoull's tolerance for padding and a
/// '+'/'-' sign is what this rejects (`--jobs --quick`, `--jobs=+5`).
inline std::uint64_t parse_u64_flag(
    int argc, char** argv, const char* flag, std::uint64_t def = 0,
    std::uint64_t lo = 0,
    std::uint64_t hi = std::numeric_limits<std::uint64_t>::max()) {
  const char* v = flag_value(argc, argv, flag);
  if (v == nullptr) return def;
  bool digits_only = v[0] != '\0';
  for (const char* p = v; *p != '\0'; ++p)
    if (*p < '0' || *p > '9') digits_only = false;
  errno = 0;
  const unsigned long long n = digits_only ? std::strtoull(v, nullptr, 10) : 0;
  // An overflowing all-digits value saturates silently in strtoull.
  if (!digits_only || errno == ERANGE || n < lo || n > hi) {
    const std::string range =
        hi == std::numeric_limits<std::uint64_t>::max()
            ? ">= " + std::to_string(lo)
            : std::to_string(lo) + ".." + std::to_string(hi);
    std::fprintf(stderr, "warning: ignoring bad %s value '%s' (%s)\n", flag, v,
                 range.c_str());
    return def;
  }
  return n;
}

/// One accepted name of a mode flag; a null-terminated table of these per enum.
template <typename E>
struct FlagChoice {
  const char* name;
  E value;
};

inline constexpr FlagChoice<TraceMode> kTraceModes[] = {
    {"off", TraceMode::kOff},
    {"ro", TraceMode::kReadOnly},
    {"rw", TraceMode::kReadWrite},
    {nullptr, {}}};

/// The tcp:// row names the endpoint form in the warning: parse_store_l2
/// takes any `tcp://` value before it consults the table.
inline constexpr FlagChoice<StoreL2Mode> kStoreL2Modes[] = {
    {"off", StoreL2Mode::kOff},
    {"ro", StoreL2Mode::kReadOnly},
    {"rw", StoreL2Mode::kReadWrite},
    {"tcp://host:port", StoreL2Mode::kReadWrite},
    {nullptr, {}}};

inline constexpr FlagChoice<PlanCacheMode> kPlanCacheModes[] = {
    {"off", PlanCacheMode::kOff},
    {"mem", PlanCacheMode::kMemory},
    {"disk", PlanCacheMode::kDisk},
    {nullptr, {}}};

/// The row of `table` named exactly `v`; `def` when `v` is null or unknown.
template <typename E>
E choice_value(const char* flag, const char* v, const FlagChoice<E>* table,
               E def) {
  if (v == nullptr) return def;
  std::string names;
  for (const FlagChoice<E>* c = table; c->name != nullptr; ++c) {
    if (std::strcmp(v, c->name) == 0) return c->value;
    names += names.empty() ? "" : "|";
    names += c->name;
  }
  std::fprintf(stderr, "warning: ignoring bad %s value '%s' (%s)\n", flag, v,
               names.c_str());
  return def;
}

/// Parse `FLAG NAME` / `FLAG=NAME` against `table`; `def` when absent.
template <typename E>
E parse_choice_flag(int argc, char** argv, const char* flag,
                    const FlagChoice<E>* table, E def) {
  return choice_value(flag, flag_value(argc, argv, flag), table, def);
}

/// `--jobs N`: campaign worker threads (0 = hardware concurrency).
inline unsigned parse_jobs(int argc, char** argv, unsigned def = 1) {
  return static_cast<unsigned>(
      parse_u64_flag(argc, argv, "--jobs", def, 0, kMaxJobs));
}

/// `--service-clients N`: concurrent client threads of the service bench.
inline unsigned parse_service_clients(int argc, char** argv,
                                      unsigned def = 4) {
  return static_cast<unsigned>(
      parse_u64_flag(argc, argv, "--service-clients", def, 1, kMaxJobs));
}

/// `--port N`: a socket server's TCP port (0 = kernel-assigned). Its
/// PRESENCE (even `--port 0`) switches plan_server into socket mode.
inline std::uint16_t parse_port(int argc, char** argv, std::uint16_t def = 0) {
  return static_cast<std::uint16_t>(
      parse_u64_flag(argc, argv, "--port", def, 0, 65535));
}

/// `--net-workers N`: socket-server workers, each one request in flight
/// (size it at least as large as the burst you want sweep-coalesced).
inline unsigned parse_net_workers(int argc, char** argv, unsigned def = 8) {
  return static_cast<unsigned>(
      parse_u64_flag(argc, argv, "--net-workers", def, 1, kMaxJobs));
}

/// `--max-pending N`: socket-server admission-queue bound; arrivals beyond
/// it are shed with a `busy` line. 0 (shed everything) is surely a mistake.
inline std::size_t parse_max_pending(int argc, char** argv,
                                     std::size_t def = 256) {
  return static_cast<std::size_t>(
      parse_u64_flag(argc, argv, "--max-pending", def, 1));
}

/// `--coalesce-window-ms X` in [0, 60000]: how long a sweep leader holds
/// its union sweep open (svc::PlanningServiceConfig::coalesce_window_ms).
inline double parse_coalesce_window_ms(int argc, char** argv,
                                       double def = 0.0) {
  const char* v = flag_value(argc, argv, "--coalesce-window-ms");
  if (v == nullptr) return def;
  char* end = nullptr;
  const double ms = std::strtod(v, &end);
  // end == v catches an empty value, !(ms >= 0) NaN, the cap inf.
  if (end == v || *end != '\0' || !(ms >= 0.0) || ms > 60'000.0) {
    std::fprintf(stderr,
                 "warning: ignoring bad --coalesce-window-ms value '%s' "
                 "(finite ms in [0, 60000])\n", v);
    return def;
  }
  return ms;
}

/// `--plan-cache off|mem|disk`: no memo, an in-process memo, or memo plus
/// `.cmsplan` entries in the trace-store directory.
inline PlanCacheMode parse_plan_cache(
    int argc, char** argv, PlanCacheMode def = PlanCacheMode::kDisk) {
  return parse_choice_flag(argc, argv, "--plan-cache", kPlanCacheModes, def);
}

/// `--trace-dir DIR`: the persistent trace store; empty = none.
inline std::string parse_trace_dir(int argc, char** argv) {
  return parse_string_flag(argc, argv, "--trace-dir");
}

/// `--trace off|ro|rw`: ignore the store, serve hits only, or also write
/// back misses (the default, so `--trace-dir` alone captures once).
inline TraceMode parse_trace_mode(int argc, char** argv,
                                  TraceMode def = TraceMode::kReadWrite) {
  return parse_choice_flag(argc, argv, "--trace", kTraceModes, def);
}

/// `--store-l2-dir DIR`: the far (shared) store tier; empty = none.
inline std::string parse_store_l2_dir(int argc, char** argv) {
  return parse_string_flag(argc, argv, "--store-l2-dir");
}

/// `--store-l2 off|ro|rw|tcp://host:port`: ignore the far tier, read
/// through only, read and write through (the default), or a read-write
/// networked far tier whose endpoint parse_store_l2_target picks up.
inline StoreL2Mode parse_store_l2(int argc, char** argv,
                                  StoreL2Mode def = StoreL2Mode::kReadWrite) {
  const char* v = flag_value(argc, argv, "--store-l2");
  if (v != nullptr && std::strncmp(v, "tcp://", 6) == 0)
    return StoreL2Mode::kReadWrite;
  return choice_value("--store-l2", v, kStoreL2Modes, def);
}

/// The far-tier TARGET: `--store-l2-dir` verbatim (a directory or a
/// `tcp://` endpoint), else a `tcp://` value of `--store-l2`, else "".
inline std::string parse_store_l2_target(int argc, char** argv) {
  const std::string dir = parse_store_l2_dir(argc, argv);
  if (!dir.empty()) return dir;
  const std::string mode = parse_string_flag(argc, argv, "--store-l2");
  if (mode.rfind("tcp://", 0) == 0) return mode;
  return {};
}

}  // namespace cms::core
