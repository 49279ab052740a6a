#include "svc/plan_protocol.hpp"

#include <bit>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <sstream>

#include "common/serialize.hpp"

namespace cms::svc {

namespace {

/// Strict decimal parse (same digits-only policy as core/cli.hpp):
/// "64k", "abc" or "" are rejected instead of silently truncating to a
/// number the planner would confidently mis-plan with.
bool parse_u64(const std::string& v, std::uint64_t& out) {
  if (v.empty() || v.size() > 19) return false;
  std::uint64_t n = 0;
  for (const char c : v) {
    if (c < '0' || c > '9') return false;
    n = n * 10 + static_cast<std::uint64_t>(c - '0');
  }
  out = n;
  return true;
}

bool parse_u32(const std::string& v, std::uint32_t& out) {
  std::uint64_t n = 0;
  if (!parse_u64(v, n) || n > 0xFFFFFFFFull) return false;
  out = static_cast<std::uint32_t>(n);
  return true;
}

std::string bad_value(const std::string& key, const std::string& val,
                      const std::string& expect) {
  return "bad " + key + " value '" + val + "' (" + expect + ")";
}

}  // namespace

bool parse_plan_request(const std::string& operands, PlanRequest& req,
                        std::string& error) {
  std::istringstream in(operands);
  if (!(in >> req.scenario)) {
    error = "plan needs a scenario name";
    return false;
  }
  std::string kv;
  bool seen_grid = false, seen_runs = false, seen_l2 = false,
       seen_eps = false, seen_deadline = false, seen_phases = false;
  while (in >> kv) {
    const auto eq = kv.find('=');
    const std::string key = kv.substr(0, eq);
    const std::string val = eq == std::string::npos ? "" : kv.substr(eq + 1);
    // A repeated key is a protocol error, not a merge: `grid=4 grid=8`
    // used to concatenate into {4,8} and repeated scalars kept the last
    // value — either way the client said two different things and got an
    // answer to neither.
    auto once = [&](bool& seen) {
      if (seen) {
        error = "repeated option '" + key + "' (each may appear once)";
        return false;
      }
      seen = true;
      return true;
    };
    std::uint32_t n = 0;
    if (key == "grid") {
      if (!once(seen_grid)) return false;
      // Every comma-separated field must be a size, the empty ones before
      // a trailing comma or after an empty `grid=` included.
      for (std::size_t start = 0;;) {
        const std::size_t comma = val.find(',', start);
        const std::string item = val.substr(start, comma - start);
        if (!parse_u32(item, n)) {
          error = bad_value("grid", item, "plain decimal expected");
          return false;
        }
        req.grid.push_back(n);
        if (comma == std::string::npos) break;
        start = comma + 1;
      }
    } else if (key == "runs") {
      if (!once(seen_runs)) return false;
      if (!parse_u32(val, n)) {
        error = bad_value("runs", val, "plain decimal expected");
        return false;
      }
      req.runs = n;
    } else if (key == "l2") {
      if (!once(seen_l2)) return false;
      if (!parse_u32(val, n)) {
        error = bad_value("l2", val, "plain decimal expected");
        return false;
      }
      req.l2_size_bytes = n;
    } else if (key == "eps") {
      if (!once(seen_eps)) return false;
      char* end = nullptr;
      const double eps = std::strtod(val.c_str(), &end);
      // strtod's leniency is exactly what must be rejected here: "nan"
      // and "inf" parse but poison the planner, and any negative value
      // aliases the auto-tune sentinel (kAutoCurvatureEps) — a client
      // typing eps=-1 would silently get auto-tuning instead of an
      // error. Auto-tune is requested by omitting eps.
      if (val.empty() || end != val.c_str() + val.size() ||
          !std::isfinite(eps) || eps < 0.0) {
        error = bad_value("eps", val,
                          "finite value >= 0 expected; omit eps for "
                          "auto-tune");
        return false;
      }
      req.curvature_eps = eps;
    } else if (key == "deadline_ms") {
      if (!once(seen_deadline)) return false;
      std::uint64_t ms = 0;
      if (!parse_u64(val, ms)) {
        error = bad_value("deadline_ms", val, "plain decimal expected");
        return false;
      }
      req.deadline_ms = ms;
    } else if (key == "phases") {
      if (!once(seen_phases)) return false;
      // Only the explicit form is accepted: a future per-phase selection
      // ("phases=0,2") must not change the meaning of today's requests.
      if (val != "all") {
        error = bad_value("phases", val, "'all' expected");
        return false;
      }
      req.phases = true;
    } else {
      error = "unknown option '" + key +
              "' (grid=|runs=|l2=|eps=|deadline_ms=|phases=)";
      return false;
    }
  }
  return true;
}

namespace {

/// One response's own answer (assignment + predictions) — shared by the
/// top-level digest and each per-phase sub-digest.
void digest_one(serialize::ByteWriter& w, const PlanResponse& resp) {
  const opt::PartitionPlan& plan = resp.assignment;
  w.varint(plan.entries.size());
  for (const opt::PlanEntry& e : plan.entries) {
    w.str(e.name);
    w.u8(static_cast<std::uint8_t>(e.kind));
    w.u8(e.is_task ? 1 : 0);
    w.varint(e.sets);
    w.varint(e.partition.base_set);
    w.varint(e.partition.num_sets);
    // Exact bit patterns: the digest must separate answers the JSON's
    // rounded floats cannot.
    w.fixed64(std::bit_cast<std::uint64_t>(e.expected_misses));
  }
  w.varint(plan.total_sets);
  w.varint(plan.used_sets);
  w.varint(plan.spare.base_set);
  w.varint(plan.spare.num_sets);
  w.fixed64(std::bit_cast<std::uint64_t>(plan.expected_task_misses));
  w.u8(plan.feasible ? 1 : 0);
  w.varint(resp.tasks.size());
  for (const auto& t : resp.tasks) {
    w.str(t.name);
    w.varint(t.sets);
    w.fixed64(std::bit_cast<std::uint64_t>(t.predicted_misses));
    w.fixed64(std::bit_cast<std::uint64_t>(t.predicted_cycles));
  }
}

}  // namespace

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (const char c : s) {
    const auto byte = static_cast<unsigned char>(c);
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (byte < 0x20 || byte >= 0x80) {
      char esc[7];
      std::snprintf(esc, sizeof esc, "\\u%04x", static_cast<unsigned>(byte));
      out += esc;
    } else {
      out += c;
    }
  }
  return out;
}

std::string format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string out(n > 0 ? static_cast<std::size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(out.data(), out.size() + 1, fmt, args);
  va_end(args);
  return out;
}

std::string error_json(const std::string& message) {
  return format("{\"ok\": false, \"error\": \"%s\"}",
                json_escape(message).c_str());
}

std::string unknown_command_json(const std::string& cmd) {
  return error_json("unknown command '" + cmd + "' (plan|scenarios|stats|gc)");
}

std::string plan_response_json(const PlanResponse& resp) {
  // Per-phase entries of a phased response carry their phase name.
  const std::string phase_field =
      resp.phase.empty()
          ? std::string()
          : format(", \"phase\": \"%s\"", json_escape(resp.phase).c_str());
  if (!resp.ok && resp.phases.empty())
    return format("{\"ok\": false, \"scenario\": \"%s\"%s, \"error\": \"%s\"}",
                  json_escape(resp.scenario).c_str(), phase_field.c_str(),
                  json_escape(resp.error).c_str());
  if (!resp.phases.empty()) {
    // Phased response (phases=all): one full response object per phase;
    // the top level aggregates ok and carries the digest over ALL phases.
    std::string out = format("{\"ok\": %s, \"scenario\": \"%s\"",
                             resp.ok ? "true" : "false",
                             json_escape(resp.scenario).c_str());
    if (!resp.ok)
      out += format(", \"error\": \"%s\"", json_escape(resp.error).c_str());
    out += ", \"phases\": [";
    for (std::size_t i = 0; i < resp.phases.size(); ++i) {
      if (i) out += ", ";
      out += plan_response_json(resp.phases[i]);
    }
    out += format("], \"plan_digest\": \"%s\", \"ms\": {\"total\": %.1f}}",
                  plan_response_digest(resp).c_str(), resp.total_ms);
    return out;
  }
  std::string out = format(
      "{\"ok\": true, \"scenario\": \"%s\"%s, \"feasible\": %s, "
      "\"expected_task_misses\": %.1f, \"used_sets\": %u, "
      "\"total_sets\": %u, \"captured\": %llu, \"store_hits\": %llu",
      json_escape(resp.scenario).c_str(), phase_field.c_str(),
      resp.assignment.feasible ? "true" : "false",
      resp.assignment.expected_task_misses, resp.assignment.used_sets,
      resp.assignment.total_sets,
      static_cast<unsigned long long>(resp.captured()),
      static_cast<unsigned long long>(resp.store_hits()));
  out += ", \"tasks\": [";
  for (std::size_t i = 0; i < resp.tasks.size(); ++i) {
    const auto& t = resp.tasks[i];
    out += format("%s{\"name\": \"%s\", \"sets\": %u, \"misses\": %.1f, "
                  "\"t_i\": %.0f}",
                  i ? ", " : "", json_escape(t.name).c_str(), t.sets,
                  t.predicted_misses, t.predicted_cycles);
  }
  out += "], \"runs\": [";
  for (std::size_t i = 0; i < resp.captures.size(); ++i) {
    const auto& r = resp.captures[i];
    out += format("%s{\"jitter\": %llu, \"digest\": \"%s\", \"source\": "
                  "\"%s\"}",
                  i ? ", " : "", static_cast<unsigned long long>(r.jitter),
                  r.digest.c_str(), to_string(r.source));
  }
  // plan_digest is the machine-grade identity: the rounded floats above
  // are for humans, the digest separates answers bit-for-bit
  // (bench/micro_plan_server proves coalesced == uncoalesced through it).
  out += format(
      "], \"plan_source\": \"%s\", \"sweep\": \"%s\", \"union_points\": %u, "
      "\"plan_digest\": \"%s\", "
      "\"ms\": {\"capture\": %.1f, \"profile\": %.1f, "
      "\"plan\": %.1f, \"plan_cache\": %.2f, \"total\": %.1f}}",
      to_string(resp.plan_source), to_string(resp.sweep),
      resp.union_points, plan_response_digest(resp).c_str(),
      resp.capture_ms, resp.profile_ms, resp.plan_ms, resp.plan_cache_ms,
      resp.total_ms);
  return out;
}

std::string plan_response_digest(const PlanResponse& resp) {
  serialize::ByteWriter w;
  w.str("planresp-v1");
  digest_one(w, resp);
  // Phased responses append every per-phase answer. Classic responses
  // write NOTHING here, so their digests are byte-identical to the
  // pre-phases format (persisted references stay valid).
  if (!resp.phases.empty()) {
    w.str("phases");
    w.varint(resp.phases.size());
    for (const PlanResponse& ph : resp.phases) {
      w.str(ph.phase);
      digest_one(w, ph);
    }
  }
  return serialize::fnv1a128_hex(w.bytes().data(), w.size());
}

}  // namespace cms::svc
