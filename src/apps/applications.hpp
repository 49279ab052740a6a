// Workload factories: the paper's two evaluation applications, fully
// assembled (network + shared segments + input content + verification).
//
//   Application 1 (15 tasks): two JPEG decoders working on different
//   picture formats + one line-based Canny edge detection.
//   Application 2 (13 tasks): the MPEG2 video decoder.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "apps/canny/canny_kpn.hpp"
#include "apps/codec/shared_tables.hpp"
#include "apps/jpeg/jpeg_kpn.hpp"
#include "apps/m2v/m2v_codec.hpp"
#include "apps/m2v/m2v_kpn.hpp"
#include "kpn/network.hpp"

namespace cms::apps {

/// Which of the paper's two evaluation applications a workload (or one
/// phase of a streaming workload) runs. Flag-style: kBoth co-runs them.
enum class AppMix : std::uint8_t {
  kNone = 0,
  kJpegCanny = 1,  // 2x JPEG + Canny (15 tasks)
  kMpeg2 = 2,      // MPEG2 decoder (13 tasks)
  kBoth = 3,
};
const char* to_string(AppMix mix);

constexpr bool mix_has_jpeg_canny(AppMix m) {
  return (static_cast<std::uint8_t>(m) &
          static_cast<std::uint8_t>(AppMix::kJpegCanny)) != 0;
}
constexpr bool mix_has_mpeg2(AppMix m) {
  return (static_cast<std::uint8_t>(m) &
          static_cast<std::uint8_t>(AppMix::kMpeg2)) != 0;
}

/// Number of KPN tasks an AppMix instantiates.
constexpr std::size_t mix_task_count(AppMix m) {
  return (mix_has_jpeg_canny(m) ? 15 : 0) + (mix_has_mpeg2(m) ? 13 : 0);
}

struct AppConfig {
  // Application 1 content.
  int jpeg1_width = 176, jpeg1_height = 144;  // QCIF
  int jpeg2_width = 128, jpeg2_height = 96;   // SQCIF-ish: different format
  int canny_width = 176, canny_height = 144;
  int jpeg_quality = 75;
  // Application 2 content.
  int m2v_width = 176, m2v_height = 144;
  int m2v_frames = 8;
  int m2v_qscale = 8;

  /// Periodic execution (paper section 3.1: applications execute "for an
  /// infinite time in a periodic manner"): number of distinct pictures
  /// each JPEG decoder decodes and of frames the edge detection processes.
  int jpeg_pictures = 4;
  int canny_frames = 4;

  std::uint64_t seed = 1;

  /// Uniformly scale the content down (for fast unit tests).
  static AppConfig tiny(std::uint64_t seed = 1);

  /// Content fingerprint over every field — part of the trace-store
  /// digest (core::app_trace_key), so any content tweak invalidates
  /// persisted captures.
  std::uint64_t digest() const;

  /// Field-by-field equality: the key of the content memo.
  bool operator==(const AppConfig&) const = default;
};

/// Immutable inputs of one jpeg-canny content: the two encoded JPEG
/// sequences, the Canny source frames, and the oracle images verify()
/// compares a run's outputs with (the reference decode of each
/// sequence's last picture, the reference edge map of the last frame).
struct JpegCannyContent {
  JpegSequence jpeg1, jpeg2;
  std::vector<Image> canny_srcs;
  Image jpeg1_want, jpeg2_want, canny_want;
};

/// Immutable inputs of one MPEG2 content: the encoded stream and its
/// reference decode, the oracle verify() compares every frame with.
struct Mpeg2Content {
  M2vStream stream;
  std::vector<Image> want;
};

/// Each content kind is encoded once per process and AppConfig, then
/// shared: the builders keep an LRU memo of this many contents per kind,
/// well above the handful the built-in scenarios and benches use.
/// Eviction only drops the memo's reference; an Application built
/// earlier keeps its content alive.
inline constexpr std::size_t kContentMemoCapacity = 16;

/// Content + pipelines of one phase of a phased (streaming) application.
/// Heap-held so the owning Application stays movable while verify
/// closures keep stable interior pointers.
struct PhaseUnit {
  std::string name;
  /// Name prefix of this phase's tasks and buffers inside the combined
  /// network ("p1/IDCT1"); empty for single-phase apps, so an isolation
  /// run of the same mix+content produces names that map onto the
  /// combined run by prepending this prefix (opt::map_phase_plan).
  std::string prefix;
  AppMix mix = AppMix::kNone;
  AppConfig content;

  /// Memoized content of `content`, per app of the mix (null when the mix
  /// lacks that app).
  std::shared_ptr<const JpegCannyContent> jpeg_canny;
  std::shared_ptr<const Mpeg2Content> mpeg2;
  JpegPipeline jpeg_pipe1, jpeg_pipe2;
  CannyPipeline canny_pipe;
  M2vPipeline m2v_pipe;

  /// This phase's task ids, in creation order (the engine's phase
  /// schedule is built from these).
  std::vector<TaskId> tasks;
};

/// One phase of a streaming workload, as requested from make_phased_app:
/// mix + content; iteration counts inside `content` set the phase length.
struct AppPhase {
  std::string name;
  AppMix mix = AppMix::kNone;
  AppConfig content;
};

/// One fully assembled workload. Owns its network and shared tables and
/// shares its memoized content (kContentMemoCapacity) with every other
/// Application built from the same AppConfig; non-copyable, heap-held
/// members keep internal pointers stable.
class Application {
 public:
  std::string name;
  std::unique_ptr<kpn::Network> net;
  std::unique_ptr<SharedCodecTables> tables;

  // Shared static segments (the last rows of Tables 1 and 2).
  sim::Region appl_data, appl_bss, rt_data, rt_bss;

  // Content (kept alive for the processes that point into it; null for
  // an app the workload lacks, and for phased apps, whose PhaseUnits
  // hold theirs).
  std::shared_ptr<const JpegCannyContent> jpeg_canny;
  std::shared_ptr<const Mpeg2Content> mpeg2;
  std::unique_ptr<sim::SharedArray<std::uint64_t>> progress;

  // Pipeline handles.
  JpegPipeline jpeg_pipe1, jpeg_pipe2;
  CannyPipeline canny_pipe;
  M2vPipeline m2v_pipe;

  /// Phase units of a phased (streaming) app, in schedule order; empty
  /// for the classic fixed-mix apps. All phases share one network, one
  /// set of static segments and one codec-table block; each phase's
  /// pipelines live under its PhaseUnit::prefix.
  std::vector<std::unique_ptr<PhaseUnit>> phases;

  /// Functional-correctness oracle; call after a simulation run.
  /// Returns true when every pipeline produced bit-exact output.
  std::function<bool()> verify;

  Application() = default;
  Application(const Application&) = delete;
  Application& operator=(const Application&) = delete;
  Application(Application&&) = default;
  Application& operator=(Application&&) = default;
};

/// Application 1: 2x JPEG + Canny (15 tasks).
Application make_jpeg_canny_app(const AppConfig& cfg);

/// Application 2: MPEG2 decoder (13 tasks).
Application make_m2v_app(const AppConfig& cfg);

/// Generalized factory: any AppMix as one workload. kJpegCanny and
/// kMpeg2 delegate to the classic builders above (bit-identical names
/// and layout); kBoth co-runs both pipelines in one network. Throws
/// std::invalid_argument for kNone.
Application make_mix_app(AppMix mix, const AppConfig& cfg);

/// Streaming workload: every phase's pipelines instantiated in ONE
/// network (names under "p<k>/" prefixes when there is more than one
/// phase), sharing the static segments and codec tables. The engine's
/// phase schedule (sim::TimingEngine::set_phase_schedule) gates phase
/// k+1's tasks until phase k drained, so the app mix changes mid-run.
/// verify() is the AND of every phase's oracle.
///
/// Constraint: the codec-table block is shared, so all JPEG phases must
/// agree on jpeg_quality, and mixing MPEG2 phases (fixed quality-75
/// tables) with a different JPEG quality throws std::invalid_argument —
/// as does an empty schedule or a phase with AppMix::kNone.
Application make_phased_app(const std::vector<AppPhase>& phases);

}  // namespace cms::apps
