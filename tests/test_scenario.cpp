// Scenario registry tests: built-in lookup, registration, bad-spec and
// unknown-name errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "core/scenario.hpp"

namespace cms::core {
namespace {

TEST(ScenarioRegistry, BuiltinsRegistered) {
  for (const char* name :
       {"jpeg-canny", "mpeg2", "jpeg-canny-tiny", "mpeg2-tiny",
        "jpeg-canny-fine", "jpeg-canny-dense", "mpeg2-tiny-rand"})
    EXPECT_TRUE(scenarios().has(name)) << name;

  const auto names = scenarios().names();
  EXPECT_GE(names.size(), 7u);
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(ScenarioRegistry, BuiltinsCarryTraceKeys) {
  // Every built-in must be store-ready: a non-empty trace_key that embeds
  // the scenario's own identity.
  for (const auto& name : scenarios().names()) {
    const ScenarioSpec spec = scenarios().get(name);
    EXPECT_FALSE(spec.experiment.trace_key.empty()) << name;
  }
  // Content-equal scenarios still get distinct keys (per-scenario
  // bookkeeping), and content differences change the digest half.
  EXPECT_NE(scenarios().get("jpeg-canny").experiment.trace_key,
            scenarios().get("jpeg-canny-fine").experiment.trace_key);
}

TEST(ScenarioRegistry, DenseGridHas64Points) {
  const ScenarioSpec dense = scenarios().get("jpeg-canny-dense");
  EXPECT_GE(dense.experiment.profile_grid.size(), 64u);
  EXPECT_GT(dense.experiment.planner.curvature_eps, 0.0);
}

TEST(ScenarioRegistry, RandScenarioUsesRandomReplacement) {
  const ScenarioSpec rand = scenarios().get("mpeg2-tiny-rand");
  EXPECT_EQ(rand.experiment.platform.hier.l2.replacement,
            mem::Replacement::kRandom);
}

TEST(ScenarioRegistry, GetReturnsUsableSpec) {
  const ScenarioSpec spec = scenarios().get("mpeg2-tiny");
  EXPECT_EQ(spec.name, "mpeg2-tiny");
  EXPECT_FALSE(spec.description.empty());
  ASSERT_TRUE(spec.factory);
  const apps::Application app = spec.factory();
  EXPECT_EQ(app.net->processes().size(), 13u);  // MPEG2 task count
}

TEST(ScenarioRegistry, MakeExperimentWiresJobs) {
  const Experiment exp = scenarios().make_experiment("mpeg2-tiny", 2);
  EXPECT_EQ(exp.config().jobs, 2u);
  EXPECT_EQ(exp.tasks().size(), 13u);
}

TEST(ScenarioRegistry, MakeExperimentKeepsSpecJobsWhenOmitted) {
  ScenarioRegistry reg;
  ScenarioSpec spec;
  spec.name = "parallel-by-default";
  spec.factory = [] { return apps::make_m2v_app(apps::AppConfig::tiny()); };
  spec.experiment.jobs = 4;
  reg.add(spec);
  EXPECT_EQ(reg.make_experiment("parallel-by-default").config().jobs, 4u);
  EXPECT_EQ(reg.make_experiment("parallel-by-default", 2).config().jobs, 2u);
}

TEST(ScenarioRegistry, FineGridIsDenser) {
  const ScenarioSpec base = scenarios().get("jpeg-canny");
  const ScenarioSpec fine = scenarios().get("jpeg-canny-fine");
  EXPECT_GT(fine.experiment.profile_grid.size(),
            base.experiment.profile_grid.size());
}

TEST(ScenarioRegistry, ListReturnsDescriptionsAndPhaseCounts) {
  // One-lock listing for the plan_server `scenarios` command: every row
  // carries name, description and phase count, sorted, and matches what
  // per-name get() would say.
  const auto rows = scenarios().list();
  ASSERT_GE(rows.size(), 9u);
  EXPECT_EQ(rows.size(), scenarios().names().size());
  bool saw_stream = false;
  for (std::size_t i = 0; i < rows.size(); ++i) {
    if (i > 0) {
      EXPECT_LT(rows[i - 1].name, rows[i].name);
    }
    EXPECT_FALSE(rows[i].description.empty()) << rows[i].name;
    EXPECT_EQ(rows[i].phase_count,
              scenarios().get(rows[i].name).phases.size());
    if (rows[i].phase_count > 0) saw_stream = true;
  }
  EXPECT_TRUE(saw_stream);
}

TEST(ScenarioRegistry, BuiltinTableMatchesRegistry) {
  // The registry is built FROM the declarative table — every row must be
  // registered, under its own name.
  for (const ScenarioDef& def : builtin_scenario_defs())
    EXPECT_TRUE(scenarios().has(def.name)) << def.name;
  EXPECT_GE(builtin_scenario_defs().size(), 9u);
}

TEST(ScenarioRegistry, StreamingBuiltinsCompilePhaseSchedules) {
  for (const char* name : {"stream-tiny", "stream-jpeg-mpeg2"}) {
    const ScenarioSpec spec = scenarios().get(name);
    ASSERT_EQ(spec.phases.size(), 3u) << name;
    // Windows tile the period axis from 0; every phase carries a usable
    // solo factory and a mix/content-keyed trace key.
    std::uint32_t expect_begin = 0;
    for (const ScenarioPhase& ph : spec.phases) {
      EXPECT_EQ(ph.begin, expect_begin) << name << "/" << ph.name;
      EXPECT_GT(ph.end, ph.begin) << name << "/" << ph.name;
      EXPECT_FALSE(ph.trace_key.empty());
      EXPECT_TRUE(static_cast<bool>(ph.factory));
      expect_begin = ph.end;
    }
  }

  // stream-tiny: jpeg burst -> mpeg2 -> jpeg drain. The two jpeg phases
  // share mix AND content, so their trace keys — and hence captures and
  // plan-cache entries — dedup; the mpeg2 phase is distinct.
  const ScenarioSpec tiny = scenarios().get("stream-tiny");
  EXPECT_EQ(tiny.phases[0].mix, apps::AppMix::kJpegCanny);
  EXPECT_EQ(tiny.phases[1].mix, apps::AppMix::kMpeg2);
  EXPECT_EQ(tiny.phases[0].trace_key, tiny.phases[2].trace_key);
  EXPECT_NE(tiny.phases[0].trace_key, tiny.phases[1].trace_key);
  // The phase key is mix/content-addressed, not scenario-addressed, so
  // the scenario's own key must differ from every phase's.
  EXPECT_NE(tiny.experiment.trace_key, tiny.phases[0].trace_key);

  // Phase window length drives the solo content's iteration counts.
  EXPECT_EQ(tiny.phases[1].content.m2v_frames,
            static_cast<int>(tiny.phases[1].end - tiny.phases[1].begin));

  // The combined factory builds the phased app: 15 + 13 + 15 tasks.
  const apps::Application app = tiny.factory();
  ASSERT_EQ(app.phases.size(), 3u);
  EXPECT_EQ(app.net->processes().size(), 43u);
}

TEST(ScenarioRegistry, PhaseScheduleValidationNamesThePhase) {
  const auto fails = [](ScenarioDef def, const char* what) -> std::string {
    try {
      compile_scenario(def);
      ADD_FAILURE() << "accepted: " << what;
    } catch (const std::invalid_argument& e) {
      return e.what();
    }
    return "";
  };
  ScenarioDef def;
  def.name = "bad-stream";
  def.content = apps::AppConfig::tiny();
  def.phases = {{"a", apps::AppMix::kJpegCanny, 0, 2},
                {"b", apps::AppMix::kMpeg2, 2, 4}};
  EXPECT_TRUE(compile_scenario(def).phases.size() == 2u);  // baseline OK

  ScenarioDef zero = def;
  zero.phases[1].end = 2;  // [2, 2)
  std::string msg = fails(zero, "zero-length phase");
  EXPECT_NE(msg.find("phase 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("zero-length"), std::string::npos) << msg;

  ScenarioDef overlap = def;
  overlap.phases[1].begin = 1;
  msg = fails(overlap, "overlapping windows");
  EXPECT_NE(msg.find("phase 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("overlapping"), std::string::npos) << msg;

  ScenarioDef gap = def;
  gap.phases[1].begin = 3;
  gap.phases[1].end = 5;
  msg = fails(gap, "gap between windows");
  EXPECT_NE(msg.find("phase 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("gap"), std::string::npos) << msg;

  ScenarioDef late = def;
  late.phases[0].begin = 1;  // phase 0 must begin at 0
  msg = fails(late, "phase 0 not at origin");
  EXPECT_NE(msg.find("phase 0"), std::string::npos) << msg;

  ScenarioDef nomix = def;
  nomix.phases[1].mix = apps::AppMix::kNone;
  msg = fails(nomix, "empty app mix");
  EXPECT_NE(msg.find("phase 1"), std::string::npos) << msg;
  EXPECT_NE(msg.find("empty app mix"), std::string::npos) << msg;

  // Fixed-mix rows still reject kNone (no phases to supply mixes).
  ScenarioDef fixed;
  fixed.name = "no-mix";
  EXPECT_THROW(compile_scenario(fixed), std::invalid_argument);
}

TEST(ScenarioRegistry, UnknownNameThrows) {
  EXPECT_FALSE(scenarios().has("no-such-scenario"));
  EXPECT_THROW(scenarios().get("no-such-scenario"), std::out_of_range);
  EXPECT_THROW(scenarios().make_experiment("no-such-scenario"),
               std::out_of_range);
}

TEST(ScenarioRegistry, BadSpecsRejected) {
  ScenarioRegistry reg;
  ScenarioSpec nameless;
  nameless.factory = [] { return apps::Application{}; };
  EXPECT_THROW(reg.add(nameless), std::invalid_argument);

  ScenarioSpec factoryless;
  factoryless.name = "broken";
  EXPECT_THROW(reg.add(factoryless), std::invalid_argument);

  EXPECT_TRUE(reg.names().empty());  // nothing half-registered
}

TEST(ScenarioRegistry, DuplicateRegistrationRejected) {
  ScenarioRegistry reg;
  ScenarioSpec spec;
  spec.name = "dup";
  spec.factory = [] { return apps::Application{}; };
  reg.add(spec);
  EXPECT_THROW(reg.add(spec), std::invalid_argument);
  EXPECT_EQ(reg.names().size(), 1u);
}

}  // namespace
}  // namespace cms::core
