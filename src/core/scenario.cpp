#include "core/scenario.hpp"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace cms::core {

namespace {

std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Per-phase content: the shared dimensions/quality/seed of the row, with
/// the iteration counts of the phase's mix set to the window length (the
/// period axis IS the picture/frame axis of the paper's periodic apps).
apps::AppConfig phase_content(const ScenarioDef& def, const PhaseDef& p) {
  apps::AppConfig c = def.content;
  const int periods = static_cast<int>(p.end - p.begin);
  if (apps::mix_has_jpeg_canny(p.mix)) {
    c.jpeg_pictures = periods;
    c.canny_frames = periods;
  }
  if (apps::mix_has_mpeg2(p.mix)) c.m2v_frames = periods;
  return c;
}

[[noreturn]] void bad_phase(const ScenarioDef& def, std::size_t k,
                            const std::string& what) {
  throw std::invalid_argument("scenario '" + def.name + "': phase " +
                              std::to_string(k) + " " + what);
}

}  // namespace

ScenarioSpec compile_scenario(const ScenarioDef& def) {
  if (def.name.empty())
    throw std::invalid_argument("scenario def has no name");

  ScenarioSpec spec;
  spec.name = def.name;
  spec.description = def.description;

  ExperimentConfig& e = spec.experiment;
  if (def.l2_bytes) e.platform.hier.l2.size_bytes = def.l2_bytes;
  if (!def.grid.empty()) e.profile_grid = def.grid;
  if (def.profile_runs) e.profile_runs = def.profile_runs;
  if (def.replacement) e.platform.hier.l2.replacement = *def.replacement;
  if (def.curvature_eps) e.planner.curvature_eps = *def.curvature_eps;

  if (def.phases.empty()) {
    if (def.mix == apps::AppMix::kNone)
      throw std::invalid_argument("scenario '" + def.name +
                                  "' has an empty app mix and no phases");
    const apps::AppMix mix = def.mix;
    const apps::AppConfig content = def.content;
    spec.factory = [mix, content] { return apps::make_mix_app(mix, content); };
    e.trace_key = app_trace_key(def.name, content);
    return spec;
  }

  // Streaming scenario: validate the schedule, compile each phase, and
  // fingerprint the whole schedule into the spec's own trace key.
  serialize::ByteWriter w;
  w.str("scenario-phases-v1");
  std::vector<apps::AppPhase> app_phases;
  for (std::size_t k = 0; k < def.phases.size(); ++k) {
    const PhaseDef& p = def.phases[k];
    if (p.end <= p.begin)
      bad_phase(def, k,
                "has a zero-length window [" + std::to_string(p.begin) + ", " +
                    std::to_string(p.end) + ")");
    const std::uint32_t expected_begin = k == 0 ? 0 : def.phases[k - 1].end;
    if (p.begin != expected_begin)
      bad_phase(def, k,
                "begins at period " + std::to_string(p.begin) +
                    (p.begin < expected_begin ? ", overlapping the previous "
                                                "window which ends at "
                                              : ", leaving a gap after ") +
                    std::to_string(expected_begin));
    if (p.mix == apps::AppMix::kNone)
      bad_phase(def, k, "references an empty app mix");

    ScenarioPhase sp;
    sp.name = p.name.empty() ? "phase" + std::to_string(k) : p.name;
    sp.mix = p.mix;
    sp.begin = p.begin;
    sp.end = p.end;
    sp.content = phase_content(def, p);
    // Mix-scoped key (not scenario-scoped): two phases running the same
    // mix on the same content — in this scenario or another — share one
    // capture in the store.
    sp.trace_key = app_trace_key(std::string("mix/") + apps::to_string(p.mix),
                                 sp.content);
    const apps::AppMix mix = p.mix;
    const apps::AppConfig content = sp.content;
    sp.factory = [mix, content] { return apps::make_mix_app(mix, content); };

    app_phases.push_back({sp.name, sp.mix, sp.content});
    w.str(sp.name);
    w.u8(static_cast<std::uint8_t>(p.mix));
    w.fixed64(sp.content.digest());
    w.varint(p.begin);
    w.varint(p.end);
    spec.phases.push_back(std::move(sp));
  }
  spec.factory = [app_phases] { return apps::make_phased_app(app_phases); };
  e.trace_key =
      def.name + "/" + hex16(serialize::fnv1a64(w.bytes().data(), w.size()));
  return spec;
}

void ScenarioRegistry::add(ScenarioSpec spec) {
  if (spec.name.empty())
    throw std::invalid_argument("scenario spec has no name");
  if (!spec.factory)
    throw std::invalid_argument("scenario '" + spec.name +
                                "' has no application factory");
  // Copy the key: emplace may consume `spec` even when insertion fails.
  std::string name = spec.name;
  std::lock_guard<std::mutex> lk(mu_);
  if (!specs_.emplace(name, std::move(spec)).second)
    throw std::invalid_argument("scenario '" + name + "' is already registered");
}

void ScenarioRegistry::add(const ScenarioDef& def) { add(compile_scenario(def)); }

bool ScenarioRegistry::has(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  return specs_.contains(name);
}

ScenarioSpec ScenarioRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lk(mu_);
  const auto it = specs_.find(name);
  if (it == specs_.end()) {
    std::string known;
    for (const auto& [n, spec] : specs_) {
      if (!known.empty()) known += ", ";
      known += n;
    }
    throw std::out_of_range("unknown scenario '" + name + "' (registered: " +
                            known + ")");
  }
  return it->second;
}

std::vector<std::string> ScenarioRegistry::names() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<std::string> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::vector<ScenarioInfo> ScenarioRegistry::list() const {
  std::lock_guard<std::mutex> lk(mu_);
  std::vector<ScenarioInfo> out;
  out.reserve(specs_.size());
  for (const auto& [name, spec] : specs_)
    out.push_back({name, spec.description, spec.phases.size()});
  return out;  // sorted: std::map iteration order
}

Experiment ScenarioRegistry::make_experiment(
    const std::string& name, std::optional<unsigned> jobs,
    std::shared_ptr<opt::TraceStore> store) const {
  ScenarioSpec spec = get(name);
  if (jobs) spec.experiment.jobs = *jobs;
  if (store) spec.experiment.trace_store = std::move(store);
  return Experiment(std::move(spec.factory), std::move(spec.experiment));
}

namespace {

apps::AppConfig mpeg2_eval_content() {
  apps::AppConfig c;
  c.m2v_width = 128;
  c.m2v_height = 96;
  c.m2v_frames = 10;
  return c;
}

std::vector<std::uint32_t> dense_grid(std::uint32_t max_sets) {
  std::vector<std::uint32_t> g;
  for (std::uint32_t sets = 1; sets <= max_sets; ++sets) g.push_back(sets);
  return g;
}

}  // namespace

// Designated-initializer rows: a field a row leaves out falls back to its
// member default, which the table reads as "keep the experiment default" —
// deliberate, so silence -Wmissing-field-initializers for the table only.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmissing-field-initializers"

const std::vector<ScenarioDef>& builtin_scenario_defs() {
  using apps::AppConfig;
  using apps::AppMix;
  static const std::vector<ScenarioDef>* table = new std::vector<ScenarioDef>{
      {
          .name = "jpeg-canny",
          .description = "2x JPEG (QCIF + SQCIF) + Canny co-run, 96 KB 4-way L2",
          .mix = AppMix::kJpegCanny,
          .content = {},  // QCIF defaults, 4 pictures / 4 frames
          .l2_bytes = 96 * 1024,
      },
      {
          .name = "mpeg2",
          .description = "MPEG2 decoder, 128x96 x 10 frames, 64 KB 4-way L2",
          .mix = AppMix::kMpeg2,
          .content = mpeg2_eval_content(),
          .l2_bytes = 64 * 1024,
      },
      {
          .name = "jpeg-canny-tiny",
          .description = "jpeg-canny mix on tiny content (tests, CI smokes)",
          .mix = AppMix::kJpegCanny,
          .content = AppConfig::tiny(),
          .l2_bytes = 32 * 1024,
          .grid = {1, 2, 4, 8, 16},
          .profile_runs = 1,
      },
      {
          .name = "mpeg2-tiny",
          .description = "MPEG2 decoder on tiny content (tests, CI smokes)",
          .mix = AppMix::kMpeg2,
          .content = AppConfig::tiny(),
          .l2_bytes = 32 * 1024,
          .grid = {1, 2, 4, 8, 16},
          .profile_runs = 1,
      },
      {
          .name = "jpeg-canny-fine",
          .description = "jpeg-canny with a 2x denser profiling sweep grid",
          .mix = AppMix::kJpegCanny,
          .content = {},
          .l2_bytes = 96 * 1024,
          .grid = {1, 2, 3, 4, 6, 8, 12, 16, 24, 32, 48, 64, 96, 128, 192,
                   256},
      },
      {
          .name = "jpeg-canny-dense",
          .description =
              "jpeg-canny mix, tiny content, dense 64-point profiling grid "
              "(replay + trace store make the sweep affordable)",
          .mix = AppMix::kJpegCanny,
          .content = AppConfig::tiny(),
          .l2_bytes = 32 * 1024,
          // Every integer size 1..64: one capture, 64 replays. The planner
          // prunes dominated candidates and thins near-collinear runs
          // before the MCKP.
          .grid = dense_grid(64),
          .profile_runs = 1,
          .curvature_eps = 0.005,
      },
      {
          .name = "mpeg2-tiny-rand",
          .description =
              "MPEG2 tiny with kRandom L2 replacement (counter-based "
              "per-client RNG; replay reproduces it bit-exactly)",
          .mix = AppMix::kMpeg2,
          .content = AppConfig::tiny(),
          .l2_bytes = 32 * 1024,
          .grid = {1, 2, 4, 8, 16},
          .profile_runs = 1,
          .replacement = mem::Replacement::kRandom,
      },
      {
          .name = "stream-tiny",
          .description =
              "3-phase streaming mix on tiny content: jpeg-canny -> mpeg2 "
              "-> jpeg-canny (replanning tests, ablation_phased)",
          .content = AppConfig::tiny(),
          // 128 KB = 512 sets: enough for a feasible single global plan
          // over the combined 43-task network, which the phased ablation
          // uses as its baseline.
          .l2_bytes = 128 * 1024,
          .grid = {1, 2, 4, 8, 16, 32},
          .profile_runs = 1,
          // Phases 0 and 2 run the identical mix + content, so their plan
          // requests share one capture and hit the plan cache.
          .phases = {{.name = "jpeg-in", .mix = AppMix::kJpegCanny, .begin = 0, .end = 2},
                     {.name = "mpeg2-steady", .mix = AppMix::kMpeg2, .begin = 2, .end = 5},
                     {.name = "jpeg-out", .mix = AppMix::kJpegCanny, .begin = 5, .end = 7}},
      },
      {
          .name = "stream-jpeg-mpeg2",
          .description =
              "evaluation-size streaming scenario: jpeg burst -> mpeg2 "
              "steady state -> jpeg burst, 256 KB 4-way L2",
          .content = {},
          .l2_bytes = 256 * 1024,
          .phases = {{.name = "jpeg-burst", .mix = AppMix::kJpegCanny, .begin = 0, .end = 4},
                     {.name = "mpeg2-steady", .mix = AppMix::kMpeg2, .begin = 4, .end = 12},
                     {.name = "jpeg-drain", .mix = AppMix::kJpegCanny, .begin = 12, .end = 16}}},
  };
  return *table;
}

#pragma GCC diagnostic pop

ScenarioRegistry& scenarios() {
  static ScenarioRegistry* registry = [] {
    auto* r = new ScenarioRegistry();
    for (const ScenarioDef& def : builtin_scenario_defs()) r->add(def);
    return r;
  }();
  return *registry;
}

}  // namespace cms::core
