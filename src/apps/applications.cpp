#include "apps/applications.hpp"

#include <algorithm>
#include <list>
#include <mutex>
#include <stdexcept>

#include "common/log.hpp"
#include "common/serialize.hpp"

namespace cms::apps {

namespace {

/// Create the four shared static segments in the paper's order and hook
/// up the progress counters in appl bss.
void make_segments(Application& app, std::size_t max_tasks) {
  kpn::Network& net = *app.net;
  app.appl_data = net.make_segment("appl_data", 4096);
  app.appl_bss = net.make_segment("appl_bss", 4096);
  app.rt_data = net.make_segment("rt_data", 4096);
  app.rt_bss = net.make_segment("rt_bss", 4096);
  app.progress = std::make_unique<sim::SharedArray<std::uint64_t>>(
      sim::Region{app.appl_bss.base, max_tasks * sizeof(std::uint64_t),
                  "progress"},
      std::vector<std::uint64_t>(max_tasks, 0));
  net.set_progress_counters(app.progress.get());
}

bool frame_matches(const std::vector<std::uint8_t>& got, const Image& want,
                   const char* what) {
  if (static_cast<int>(got.size()) != want.width() * want.height()) {
    log_warn() << what << ": size mismatch";
    return false;
  }
  if (got != want.pixels()) {
    log_warn() << what << ": pixel mismatch";
    return false;
  }
  return true;
}

JpegCannyContent encode_jpeg_canny(const AppConfig& cfg) {
  JpegCannyContent c;
  c.jpeg1 = jpeg_encode_sequence(cfg.jpeg1_width, cfg.jpeg1_height,
                                 cfg.jpeg_pictures, cfg.jpeg_quality, cfg.seed);
  c.jpeg2 = jpeg_encode_sequence(cfg.jpeg2_width, cfg.jpeg2_height,
                                 cfg.jpeg_pictures, cfg.jpeg_quality,
                                 cfg.seed ^ 0xBEEF);
  for (int f = 0; f < cfg.canny_frames; ++f)
    c.canny_srcs.push_back(testimg::blocks(cfg.canny_width, cfg.canny_height,
                                           (cfg.seed ^ 0xF00D) + f));
  // The output frame buffers end up holding the last picture and frame.
  c.jpeg1_want = jpeg_reference_decode(c.jpeg1.pictures.back());
  c.jpeg2_want = jpeg_reference_decode(c.jpeg2.pictures.back());
  c.canny_want = canny_reference(c.canny_srcs.back());
  return c;
}

Mpeg2Content encode_mpeg2(const AppConfig& cfg) {
  std::vector<Image> frames;
  frames.reserve(static_cast<std::size_t>(cfg.m2v_frames));
  for (int f = 0; f < cfg.m2v_frames; ++f)
    frames.push_back(testimg::moving_boxes(cfg.m2v_width, cfg.m2v_height, f,
                                           cfg.seed ^ 0xC0DE));
  Mpeg2Content c;
  c.stream = m2v_encode(frames, cfg.m2v_qscale);
  c.want = m2v_reference_decode(c.stream);
  return c;
}

/// The process-wide memo of one content kind: an LRU of
/// kContentMemoCapacity entries keyed on the whole AppConfig. The mutex
/// guards only the lookup; each entry's std::call_once runs its encode,
/// so concurrent builds of one content encode it once, builds of
/// different contents never wait for each other's encode, and an encode
/// that throws leaves its entry for the next build to retry.
template <class Content, Content (*Encode)(const AppConfig&)>
class ContentMemo {
 public:
  std::shared_ptr<const Content> get(const AppConfig& cfg) {
    std::shared_ptr<Entry> entry;
    {
      const std::lock_guard<std::mutex> lock(mu_);
      const auto it = std::find_if(
          lru_.begin(), lru_.end(),
          [&cfg](const std::shared_ptr<Entry>& e) { return e->key == cfg; });
      if (it != lru_.end()) {
        lru_.splice(lru_.begin(), lru_, it);
      } else {
        lru_.push_front(std::make_shared<Entry>(cfg));
        if (lru_.size() > kContentMemoCapacity) lru_.pop_back();
      }
      entry = lru_.front();
    }
    std::call_once(entry->encoded, [&entry] {
      entry->content = std::make_shared<const Content>(Encode(entry->key));
    });
    return entry->content;
  }

 private:
  struct Entry {
    explicit Entry(const AppConfig& k) : key(k) {}
    const AppConfig key;
    std::once_flag encoded;
    std::shared_ptr<const Content> content;
  };
  std::mutex mu_;
  std::list<std::shared_ptr<Entry>> lru_;  // most recently used first
};

std::shared_ptr<const JpegCannyContent> jpeg_canny_content(
    const AppConfig& cfg) {
  static ContentMemo<JpegCannyContent, encode_jpeg_canny> memo;
  return memo.get(cfg);
}

std::shared_ptr<const Mpeg2Content> mpeg2_content(const AppConfig& cfg) {
  static ContentMemo<Mpeg2Content, encode_mpeg2> memo;
  return memo.get(cfg);
}

/// Instantiate the 2xJPEG+Canny pipelines over the memoized content of
/// `cfg`, names under `prefix`, into `net`; record the content and the
/// pipeline handles in `into` (an Application or a PhaseUnit) and return
/// the output oracle.
template <class Holder>
std::function<bool()> build_jpeg_canny(kpn::Network& net,
                                       const SharedCodecTables& tables,
                                       const AppConfig& cfg,
                                       const std::string& prefix,
                                       Holder& into) {
  into.jpeg_canny = jpeg_canny_content(cfg);
  const JpegCannyContent* c = into.jpeg_canny.get();
  into.jpeg_pipe1 = add_jpeg_decoder(net, "1", c->jpeg1, tables, prefix);
  into.jpeg_pipe2 = add_jpeg_decoder(net, "2", c->jpeg2, tables, prefix);
  into.canny_pipe = add_canny(net, c->canny_srcs, prefix);

  // Raw pointers: the Application may move, its heap members do not.
  const kpn::FrameBuffer* out1 = into.jpeg_pipe1.output;
  const kpn::FrameBuffer* out2 = into.jpeg_pipe2.output;
  const kpn::FrameBuffer* cout = into.canny_pipe.output;
  return [c, out1, out2, cout]() {
    bool ok = true;
    ok &= frame_matches(out1->host_data(), c->jpeg1_want, "jpeg1");
    ok &= frame_matches(out2->host_data(), c->jpeg2_want, "jpeg2");
    ok &= frame_matches(cout->host_data(), c->canny_want, "canny");
    return ok;
  };
}

/// Same for the MPEG2 decoder.
template <class Holder>
std::function<bool()> build_mpeg2(kpn::Network& net,
                                  const SharedCodecTables& tables,
                                  const AppConfig& cfg,
                                  const std::string& prefix, Holder& into) {
  into.mpeg2 = mpeg2_content(cfg);
  const Mpeg2Content* c = into.mpeg2.get();
  into.m2v_pipe = add_m2v_decoder(net, c->stream, tables, prefix);

  const M2vOutput* output = into.m2v_pipe.output;
  return [c, output]() {
    if (c->want.size() != output->frames().size()) {
      log_warn() << "mpeg2: frame count mismatch";
      return false;
    }
    for (std::size_t f = 0; f < c->want.size(); ++f)
      if (!frame_matches(output->frames()[f], c->want[f], "mpeg2 frame"))
        return false;
    return true;
  };
}

/// The codec-table block is shared across every phase, so all JPEG phases
/// must agree on jpeg_quality and any MPEG2 phase pins it to the 75 the
/// classic m2v app hardcodes. Returns the resolved quality; throws with
/// the offending phase index otherwise.
int resolve_shared_quality(const std::vector<AppPhase>& phases) {
  int quality = -1;
  std::size_t quality_phase = 0;
  bool any_m2v = false;
  for (std::size_t k = 0; k < phases.size(); ++k) {
    const AppPhase& p = phases[k];
    if (mix_has_mpeg2(p.mix)) any_m2v = true;
    if (!mix_has_jpeg_canny(p.mix)) continue;
    if (quality == -1) {
      quality = p.content.jpeg_quality;
      quality_phase = k;
    } else if (quality != p.content.jpeg_quality) {
      throw std::invalid_argument(
          "phased app: phase " + std::to_string(k) + " jpeg_quality " +
          std::to_string(p.content.jpeg_quality) + " conflicts with phase " +
          std::to_string(quality_phase) + "'s " + std::to_string(quality) +
          " (the codec-table block is shared)");
    }
  }
  if (quality == -1) quality = 75;
  if (any_m2v && quality != 75)
    throw std::invalid_argument(
        "phased app: MPEG2 phases need the quality-75 shared tables, but a "
        "JPEG phase asks for jpeg_quality " + std::to_string(quality));
  return quality;
}

}  // namespace

const char* to_string(AppMix mix) {
  switch (mix) {
    case AppMix::kNone: return "none";
    case AppMix::kJpegCanny: return "jpeg-canny";
    case AppMix::kMpeg2: return "mpeg2";
    case AppMix::kBoth: return "jpeg-canny+mpeg2";
  }
  return "?";
}

AppConfig AppConfig::tiny(std::uint64_t seed) {
  AppConfig cfg;
  cfg.jpeg1_width = 48;
  cfg.jpeg1_height = 32;
  cfg.jpeg2_width = 32;
  cfg.jpeg2_height = 32;
  cfg.canny_width = 48;
  cfg.canny_height = 32;
  cfg.m2v_width = 48;
  cfg.m2v_height = 32;
  cfg.m2v_frames = 3;
  cfg.jpeg_pictures = 2;
  cfg.canny_frames = 2;
  cfg.seed = seed;
  return cfg;
}

std::uint64_t AppConfig::digest() const {
  serialize::ByteWriter w;
  for (const int v : {jpeg1_width, jpeg1_height, jpeg2_width, jpeg2_height,
                      canny_width, canny_height, jpeg_quality, m2v_width,
                      m2v_height, m2v_frames, m2v_qscale, jpeg_pictures,
                      canny_frames})
    w.svarint(v);
  w.varint(seed);
  return serialize::fnv1a64(w.bytes().data(), w.size());
}

Application make_jpeg_canny_app(const AppConfig& cfg) {
  Application app;
  app.name = "2jpeg+canny";
  app.net = std::make_unique<kpn::Network>();
  make_segments(app, 16);
  app.tables =
      std::make_unique<SharedCodecTables>(app.appl_data, cfg.jpeg_quality);
  app.verify = build_jpeg_canny(*app.net, *app.tables, cfg, "", app);
  return app;
}

Application make_m2v_app(const AppConfig& cfg) {
  Application app;
  app.name = "mpeg2";
  app.net = std::make_unique<kpn::Network>();
  make_segments(app, 16);
  app.tables = std::make_unique<SharedCodecTables>(app.appl_data, 75);
  app.verify = build_mpeg2(*app.net, *app.tables, cfg, "", app);
  return app;
}

Application make_mix_app(AppMix mix, const AppConfig& cfg) {
  switch (mix) {
    case AppMix::kJpegCanny: return make_jpeg_canny_app(cfg);
    case AppMix::kMpeg2: return make_m2v_app(cfg);
    case AppMix::kBoth:
      return make_phased_app({AppPhase{"all", AppMix::kBoth, cfg}});
    case AppMix::kNone: break;
  }
  throw std::invalid_argument("make_mix_app: empty app mix");
}

Application make_phased_app(const std::vector<AppPhase>& phases) {
  if (phases.empty())
    throw std::invalid_argument("phased app needs at least one phase");
  for (std::size_t k = 0; k < phases.size(); ++k)
    if (phases[k].mix == AppMix::kNone)
      throw std::invalid_argument("phased app: phase " + std::to_string(k) +
                                  " references an empty app mix");
  const int quality = resolve_shared_quality(phases);

  std::size_t total_tasks = 0;
  for (const AppPhase& p : phases) total_tasks += mix_task_count(p.mix);

  Application app;
  app.name = phases.size() == 1 ? std::string(to_string(phases[0].mix))
                                : "phased(" + std::to_string(phases.size()) +
                                      ")";
  app.net = std::make_unique<kpn::Network>();
  make_segments(app, total_tasks);
  app.tables = std::make_unique<SharedCodecTables>(app.appl_data, quality);

  std::vector<std::function<bool()>> checks;
  checks.reserve(phases.size() * 2);
  for (std::size_t k = 0; k < phases.size(); ++k) {
    auto u = std::make_unique<PhaseUnit>();
    u->name = phases[k].name.empty() ? "phase" + std::to_string(k)
                                     : phases[k].name;
    // A single-phase app keeps bare names: its plan entries then map onto
    // a multi-phase run of the same mix by prepending that run's prefix.
    if (phases.size() > 1) u->prefix = 'p' + std::to_string(k) + '/';
    u->mix = phases[k].mix;
    u->content = phases[k].content;

    const std::size_t task_begin = app.net->tasks().size();
    if (mix_has_jpeg_canny(u->mix))
      checks.push_back(
          build_jpeg_canny(*app.net, *app.tables, u->content, u->prefix, *u));
    if (mix_has_mpeg2(u->mix))
      checks.push_back(
          build_mpeg2(*app.net, *app.tables, u->content, u->prefix, *u));
    const auto& tasks = app.net->tasks();
    for (std::size_t i = task_begin; i < tasks.size(); ++i)
      u->tasks.push_back(tasks[i]->id());

    app.phases.push_back(std::move(u));
  }

  app.verify = [checks]() {
    bool ok = true;
    for (const auto& check : checks) ok &= check();
    return ok;
  };
  return app;
}

}  // namespace cms::apps
