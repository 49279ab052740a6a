// Tests for the shared CLI helpers: accepted/rejected --jobs forms (the
// validation must be stricter than strtoul), the tiered-store flags
// (--store-l2 / --store-l2-dir share a prefix and must never be confused
// for one another), the socket-server flags (--port presence semantics,
// worker/queue bounds, the coalesce-window float validation) and the
// --service-clients thread-count sanity bound.
#include <gtest/gtest.h>

#include <vector>

#include "core/cli.hpp"

namespace cms::core {
namespace {

unsigned jobs_of(std::vector<const char*> args, unsigned def = 1) {
  args.insert(args.begin(), "prog");
  return parse_jobs(static_cast<int>(args.size()),
                    const_cast<char**>(args.data()), def);
}

TEST(ParseJobs, AcceptsPlainDecimal) {
  EXPECT_EQ(jobs_of({"--jobs", "4"}), 4u);
  EXPECT_EQ(jobs_of({"--jobs=8"}), 8u);
  EXPECT_EQ(jobs_of({"--jobs", "0"}), 0u);  // 0 = hardware concurrency
  EXPECT_EQ(jobs_of({"--jobs=1024"}), 1024u);
}

TEST(ParseJobs, AbsentFlagKeepsDefault) {
  EXPECT_EQ(jobs_of({}), 1u);
  EXPECT_EQ(jobs_of({"--quick"}, 7), 7u);
}

TEST(ParseJobs, RejectsStrtoulQuirks) {
  // strtoul accepts all of these; the flag validation must not.
  EXPECT_EQ(jobs_of({"--jobs=+5"}), 1u);
  EXPECT_EQ(jobs_of({"--jobs", "+5"}), 1u);
  EXPECT_EQ(jobs_of({"--jobs", " 5"}), 1u);
  EXPECT_EQ(jobs_of({"--jobs=\t5"}), 1u);
  EXPECT_EQ(jobs_of({"--jobs", "-1"}), 1u);
  EXPECT_EQ(jobs_of({"--jobs=0x10"}), 1u);
}

TEST(ParseJobs, RejectsMalformedAndOutOfRange) {
  EXPECT_EQ(jobs_of({"--jobs"}), 1u);              // missing value
  EXPECT_EQ(jobs_of({"--jobs", "--quick"}), 1u);   // typo'd value
  EXPECT_EQ(jobs_of({"--jobs="}), 1u);             // empty value
  EXPECT_EQ(jobs_of({"--jobs", "4x"}), 1u);        // trailing junk
  EXPECT_EQ(jobs_of({"--jobs=1025"}), 1u);         // above kMaxJobs
  EXPECT_EQ(jobs_of({"--jobs=99999999999999999999"}), 1u);  // overflow
}

TEST(HasFlag, ExactMatchOnly) {
  std::vector<const char*> present{"p", "--quick"};
  EXPECT_TRUE(has_flag(2, const_cast<char**>(present.data()), "--quick"));
  std::vector<const char*> prefix{"p", "--quicker"};
  EXPECT_FALSE(has_flag(2, const_cast<char**>(prefix.data()), "--quick"));
}

PlanCacheMode plan_cache_of(std::vector<const char*> args,
                            PlanCacheMode def = PlanCacheMode::kDisk) {
  args.insert(args.begin(), "prog");
  return parse_plan_cache(static_cast<int>(args.size()),
                          const_cast<char**>(args.data()), def);
}

TEST(ParsePlanCache, AcceptsAllModes) {
  EXPECT_EQ(plan_cache_of({"--plan-cache", "off"}), PlanCacheMode::kOff);
  EXPECT_EQ(plan_cache_of({"--plan-cache=mem"}), PlanCacheMode::kMemory);
  EXPECT_EQ(plan_cache_of({"--plan-cache", "disk"}, PlanCacheMode::kOff),
            PlanCacheMode::kDisk);
}

TEST(ParsePlanCache, DefaultAndBadValues) {
  EXPECT_EQ(plan_cache_of({}), PlanCacheMode::kDisk);
  EXPECT_EQ(plan_cache_of({}, PlanCacheMode::kOff), PlanCacheMode::kOff);
  EXPECT_EQ(plan_cache_of({"--plan-cache=ram"}), PlanCacheMode::kDisk);
  EXPECT_EQ(plan_cache_of({"--plan-cache"}), PlanCacheMode::kDisk);
  // The budget flags share the prefix; they must not be mistaken for the
  // mode flag itself.
  EXPECT_EQ(plan_cache_of({"--plan-cache-budget-bytes", "5"}),
            PlanCacheMode::kDisk);
}

TEST(ParsePlanCacheBudgets, ParseAsPlainDecimalU64) {
  std::vector<const char*> args{"p", "--plan-cache-budget-bytes=4096",
                                "--plan-cache-budget-entries", "8"};
  char** argv = const_cast<char**>(args.data());
  EXPECT_EQ(parse_u64_flag(4, argv, "--plan-cache-budget-bytes"), 4096u);
  EXPECT_EQ(parse_u64_flag(4, argv, "--plan-cache-budget-entries"), 8u);
  std::vector<const char*> bad{"p", "--plan-cache-budget-bytes=64k"};
  EXPECT_EQ(parse_u64_flag(2, const_cast<char**>(bad.data()),
                           "--plan-cache-budget-bytes", 7),
            7u);
}

StoreL2Mode l2_of(std::vector<const char*> args,
                  StoreL2Mode def = StoreL2Mode::kReadWrite) {
  args.insert(args.begin(), "prog");
  return parse_store_l2(static_cast<int>(args.size()),
                        const_cast<char**>(args.data()), def);
}

std::string l2_dir_of(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parse_store_l2_dir(static_cast<int>(args.size()),
                            const_cast<char**>(args.data()));
}

TEST(ParseStoreL2, AcceptsAllModes) {
  EXPECT_EQ(l2_of({"--store-l2", "off"}), StoreL2Mode::kOff);
  EXPECT_EQ(l2_of({"--store-l2=ro"}), StoreL2Mode::kReadOnly);
  EXPECT_EQ(l2_of({"--store-l2", "rw"}, StoreL2Mode::kOff),
            StoreL2Mode::kReadWrite);
}

TEST(ParseStoreL2, DefaultAndBadValues) {
  EXPECT_EQ(l2_of({}), StoreL2Mode::kReadWrite);
  EXPECT_EQ(l2_of({}, StoreL2Mode::kOff), StoreL2Mode::kOff);
  EXPECT_EQ(l2_of({"--store-l2=readonly"}), StoreL2Mode::kReadWrite);
  EXPECT_EQ(l2_of({"--store-l2"}), StoreL2Mode::kReadWrite);
  EXPECT_EQ(l2_of({"--store-l2=RO"}), StoreL2Mode::kReadWrite);
  // The dir flag shares the prefix; it must not be mistaken for the mode
  // flag (nor its directory swallowed as a mode value).
  EXPECT_EQ(l2_of({"--store-l2-dir", "far"}), StoreL2Mode::kReadWrite);
  EXPECT_EQ(l2_of({"--store-l2-dir=far", "--store-l2=ro"}),
            StoreL2Mode::kReadOnly);
}

TEST(ParseStoreL2Dir, BothFormsAndDefault) {
  EXPECT_EQ(l2_dir_of({"--store-l2-dir", "far"}), "far");
  EXPECT_EQ(l2_dir_of({"--store-l2-dir=/tmp/far"}), "/tmp/far");
  EXPECT_EQ(l2_dir_of({}), "");
  EXPECT_EQ(l2_dir_of({"--store-l2-dir"}), "");  // missing value
  // The mode flag must not leak its value into the directory.
  EXPECT_EQ(l2_dir_of({"--store-l2", "rw"}), "");
}

TEST(ParseStoreL2, TcpEndpointImpliesReadWrite) {
  // `--store-l2 tcp://host:port` is the networked far tier in one flag:
  // the value doubles as the target, and the mode is rw.
  EXPECT_EQ(l2_of({"--store-l2", "tcp://10.0.0.1:9000"}, StoreL2Mode::kOff),
            StoreL2Mode::kReadWrite);
  EXPECT_EQ(l2_of({"--store-l2=tcp://h:1"}, StoreL2Mode::kOff),
            StoreL2Mode::kReadWrite);
}

std::string l2_target_of(std::vector<const char*> args) {
  args.insert(args.begin(), "prog");
  return parse_store_l2_target(static_cast<int>(args.size()),
                               const_cast<char**>(args.data()));
}

TEST(ParseStoreL2Target, DirWinsThenTcpModeValue) {
  // The explicit dir flag (which itself may carry a tcp:// url) always
  // wins; otherwise a tcp:// mode value is the target; otherwise none.
  EXPECT_EQ(l2_target_of({"--store-l2-dir", "far"}), "far");
  EXPECT_EQ(l2_target_of({"--store-l2-dir=tcp://h:1"}), "tcp://h:1");
  EXPECT_EQ(l2_target_of({"--store-l2", "tcp://h:2"}), "tcp://h:2");
  EXPECT_EQ(l2_target_of({"--store-l2-dir", "far", "--store-l2=tcp://h:3"}),
            "far");
  EXPECT_EQ(l2_target_of({"--store-l2", "rw"}), "");  // a mode, not a target
  EXPECT_EQ(l2_target_of({}), "");
}

unsigned clients_of(std::vector<const char*> args, unsigned def = 4) {
  args.insert(args.begin(), "prog");
  return parse_service_clients(static_cast<int>(args.size()),
                               const_cast<char**>(args.data()), def);
}

TEST(ParseServiceClients, AcceptsSaneCounts) {
  EXPECT_EQ(clients_of({"--service-clients", "8"}), 8u);
  EXPECT_EQ(clients_of({"--service-clients=1"}), 1u);
  EXPECT_EQ(clients_of({"--service-clients=1024"}), 1024u);
  EXPECT_EQ(clients_of({}), 4u);
  EXPECT_EQ(clients_of({}, 16), 16u);
}

TEST(ParseServiceClients, UpperBoundSanity) {
  // Every thread is a real client connection in the benches: a mistyped
  // count must fall back to the default, not build a 99999-thread army.
  EXPECT_EQ(clients_of({"--service-clients=0"}), 4u);
  EXPECT_EQ(clients_of({"--service-clients", "1025"}), 4u);  // > kMaxJobs
  EXPECT_EQ(clients_of({"--service-clients=99999"}, 2), 2u);
  EXPECT_EQ(clients_of({"--service-clients=8x"}), 4u);
}

TEST(HasValueFlag, AllThreeForms) {
  std::vector<const char*> bare{"p", "--port"};
  EXPECT_TRUE(has_value_flag(2, const_cast<char**>(bare.data()), "--port"));
  std::vector<const char*> pair{"p", "--port", "0"};
  EXPECT_TRUE(has_value_flag(3, const_cast<char**>(pair.data()), "--port"));
  std::vector<const char*> eq{"p", "--port=8080"};
  EXPECT_TRUE(has_value_flag(2, const_cast<char**>(eq.data()), "--port"));
  // A shared prefix is NOT the flag (--port-file vs --port).
  std::vector<const char*> prefix{"p", "--port-file", "x"};
  EXPECT_FALSE(has_value_flag(3, const_cast<char**>(prefix.data()),
                              "--port"));
}

TEST(ParsePort, RangeAndDefault) {
  std::vector<const char*> ok{"p", "--port=8080"};
  EXPECT_EQ(parse_port(2, const_cast<char**>(ok.data())), 8080);
  std::vector<const char*> zero{"p", "--port", "0"};
  EXPECT_EQ(parse_port(3, const_cast<char**>(zero.data())), 0);
  std::vector<const char*> big{"p", "--port=65536"};
  EXPECT_EQ(parse_port(2, const_cast<char**>(big.data())), 0);
  std::vector<const char*> absent{"p"};
  EXPECT_EQ(parse_port(1, const_cast<char**>(absent.data()), 9), 9);
}

TEST(ParseNetWorkers, BoundsLikeJobs) {
  std::vector<const char*> ok{"p", "--net-workers=32"};
  EXPECT_EQ(parse_net_workers(2, const_cast<char**>(ok.data())), 32u);
  std::vector<const char*> zero{"p", "--net-workers=0"};
  EXPECT_EQ(parse_net_workers(2, const_cast<char**>(zero.data())), 8u);
  std::vector<const char*> big{"p", "--net-workers=1025"};
  EXPECT_EQ(parse_net_workers(2, const_cast<char**>(big.data()), 6), 6u);
}

TEST(ParseMaxPending, RejectsZero) {
  std::vector<const char*> ok{"p", "--max-pending=2"};
  EXPECT_EQ(parse_max_pending(2, const_cast<char**>(ok.data())), 2u);
  std::vector<const char*> zero{"p", "--max-pending=0"};
  EXPECT_EQ(parse_max_pending(2, const_cast<char**>(zero.data())), 256u);
}

double window_of(std::vector<const char*> args, double def = 0.0) {
  args.insert(args.begin(), "prog");
  return parse_coalesce_window_ms(static_cast<int>(args.size()),
                                  const_cast<char**>(args.data()), def);
}

TEST(ParseCoalesceWindow, AcceptsFiniteMilliseconds) {
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms", "150"}), 150.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=2.5"}), 2.5);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=0"}), 0.0);
  EXPECT_DOUBLE_EQ(window_of({}), 0.0);
  EXPECT_DOUBLE_EQ(window_of({}, 250.0), 250.0);
}

TEST(ParseCoalesceWindow, RejectsNonFiniteAndAbsurd) {
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=-1"}, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=nan"}, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=inf"}, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=60001"}, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms=5ms"}, 5.0), 5.0);
  EXPECT_DOUBLE_EQ(window_of({"--coalesce-window-ms="}, 5.0), 5.0);
}

}  // namespace
}  // namespace cms::core
