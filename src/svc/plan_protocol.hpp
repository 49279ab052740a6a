// Request parsing for the plan_server line protocol, separated from the
// example binary so the validation rules are unit-testable
// (tests/test_plan_service.cpp) and reusable by every transport (the
// stdin loop and the src/net socket server share this parser verbatim).
//
//   plan <scenario> [grid=a,b,c] [runs=N] [l2=BYTES] [eps=X]
//                   [deadline_ms=MS] [phases=all]
//
// Values are validated strictly: integers must be plain decimal (the
// digits-only policy of core/cli.hpp — "64k" or "+5" are rejected, never
// silently truncated) and eps must be a FINITE, NON-NEGATIVE double.
// strtod would happily accept "nan", "inf" or "-1"; -1 aliases
// PlannerConfig::kAutoCurvatureEps, so a client typo would silently turn
// auto-tuning on instead of erroring — clients wanting auto-tune simply
// omit eps.
//
// REPEATED KEYS ARE ERRORS: `grid=4 grid=8` used to silently concatenate
// into one merged grid and repeated scalar keys silently kept the LAST
// value — both hid client bugs behind plausible-looking answers. Every
// option may appear at most once.
#pragma once

#include <string>

#include "svc/planning_service.hpp"

namespace cms::svc {

/// Parse the operand list of a `plan` command (everything after the
/// command word) into `req`. Returns true on success; false with a
/// human-readable message in `error` (no partial state is usable then).
bool parse_plan_request(const std::string& operands, PlanRequest& req,
                        std::string& error);

/// `s` escaped for the body of a JSON string: '"', '\\', a newline as
/// `\n` and every other byte below 0x20 as `\u00XX`. Request bytes echoed
/// back in an error or scenario string then cannot break the JSON line.
std::string json_escape(const std::string& s);

/// Content digest of everything a successful response answers with: the
/// full assignment (entry names/kinds/sets/partition ranges and the
/// expected-miss doubles as exact bit patterns) plus the per-task
/// predictions. Two responses carry the same digest iff they are
/// BIT-IDENTICAL answers — the JSON's rounded floats are for humans, this
/// is for machines (bench/micro_plan_server proves coalesced responses
/// against uncoalesced references through it).
std::string plan_response_digest(const PlanResponse& resp);

}  // namespace cms::svc
