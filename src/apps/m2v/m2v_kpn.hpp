// The MPEG2 decoder as a 13-task KPN — the paper's second workload
// (Table 2): input, vld, hdr, isiq, memMan, idct, add, decMV, predict,
// predictRD, writeMB, store, output (the task decomposition of the
// CODES'99 MPEG2 case study [11]).
//
// Data flow:
//   input -> hdr -> {FrameInfo -> vld, memMan} ; payload -> vld
//   vld -> {mv codes -> decMV -> predictRD, coef blocks -> isiq -> idct}
//   memMan -> slot tokens -> {predictRD, writeMB, store}; store releases
//   slots back to memMan (double-buffered frame pool).
//   predictRD (reads the reference frame buffer) -> predict -> add
//   idct -> add -> writeMB (writes the current frame buffer) -> store
//   store (copies the finished frame to the display buffer) -> output
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "apps/codec/shared_tables.hpp"
#include "apps/m2v/m2v_codec.hpp"
#include "kpn/network.hpp"

namespace cms::apps {

// ------------------------------------------------------------------ tokens

struct M2vChunkTok {
  std::uint8_t b[16];
};

struct M2vFrameInfoTok {
  std::uint16_t frame_idx = 0;
  std::uint8_t type = 'I';
  std::uint8_t qscale = 8;
  std::uint32_t payload_bytes = 0;
};

/// Raw MB side info decoded by vld; decMV turns it into a clamped
/// absolute reference position.
struct M2vMvCodeTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t intra = 1;
  std::int8_t dx = 0, dy = 0;
};

struct M2vCoefTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t blk = 0;
  std::uint8_t qscale = 8;
  std::int16_t zz[kBlockSize];
};

struct M2vDctTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t blk = 0;
  std::int16_t coef[kBlockSize];
};

struct M2vResTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t blk = 0;
  std::int16_t res[kBlockSize];
};

/// Absolute (clamped) reference-block position for one MB.
struct M2vMvTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t intra = 1;
  std::int16_t px = 0, py = 0;
};

struct M2vPredTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t blk = 0;
  std::uint8_t intra = 1;
  std::uint8_t p[kBlockSize];
};

struct M2vReconTok {
  std::uint16_t mb_idx = 0;
  std::uint8_t blk = 0;
  std::uint8_t p[kBlockSize];
};

struct M2vSlotTok {
  std::uint16_t frame_idx = 0;
  std::uint8_t cur = 0, ref = 0;
  std::uint8_t type = 'I';
};

struct M2vDoneTok {
  std::uint16_t frame_idx = 0;
  std::uint8_t slot = 0;
};

struct M2vReleaseTok {
  std::uint8_t slot = 0;
};

/// One display band (store copies and output consumes the display buffer
/// in bands of kM2vBandLines lines, like a sliced display DMA).
struct M2vBandTok {
  std::uint16_t frame_idx = 0;
  std::uint16_t band = 0;
};

inline constexpr int kM2vBandLines = 16;

// --------------------------------------------------------------- processes

class M2vInput final : public kpn::Process {
 public:
  M2vInput(TaskId id, std::string name, const M2vStream* stream,
           kpn::Fifo<M2vChunkTok>* out);
  void init() override;
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return pos_ >= bytes_.size(); }

 private:
  const M2vStream* stream_;
  kpn::Fifo<M2vChunkTok>* out_;
  sim::TrackedArray<std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

class M2vHdr final : public kpn::Process {
 public:
  M2vHdr(TaskId id, std::string name, kpn::Fifo<M2vChunkTok>* in,
         kpn::Fifo<M2vChunkTok>* payload, kpn::Fifo<M2vFrameInfoTok>* fi_vld,
         kpn::Fifo<M2vFrameInfoTok>* fi_mm);
  void init() override;
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override;

 private:
  enum class State { kSeqHeader, kFrameHeader, kPayload, kDone };
  std::size_t buffered() const { return wr_ - rd_; }
  bool can_ingest() const;
  std::uint8_t ring_get(sim::MemoryRecorder& rec, std::size_t i) const;

  kpn::Fifo<M2vChunkTok>* in_;
  kpn::Fifo<M2vChunkTok>* payload_;
  kpn::Fifo<M2vFrameInfoTok>* fi_vld_;
  kpn::Fifo<M2vFrameInfoTok>* fi_mm_;
  sim::TrackedArray<std::uint8_t> ring_;  // staging buffer
  std::size_t rd_ = 0, wr_ = 0;
  State state_ = State::kSeqHeader;
  int num_frames_ = 0;
  int frame_ = 0;
  int qscale_ = 8;
  std::uint32_t payload_left_ = 0;
  std::uint8_t frame_type_ = 'I';
};

class M2vVld final : public kpn::Process {
 public:
  M2vVld(TaskId id, std::string name, const M2vStream* stream,
         kpn::Fifo<M2vFrameInfoTok>* fi, kpn::Fifo<M2vChunkTok>* payload,
         kpn::Fifo<M2vMvCodeTok>* mvs, kpn::Fifo<M2vCoefTok>* coefs);
  void init() override;
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return frames_done_ >= stream_->num_frames; }

 private:
  const M2vStream* stream_;
  kpn::Fifo<M2vFrameInfoTok>* fi_;
  kpn::Fifo<M2vChunkTok>* payload_;
  kpn::Fifo<M2vMvCodeTok>* mvs_;
  kpn::Fifo<M2vCoefTok>* coefs_;

  sim::TrackedArray<std::uint8_t> buf_;  // one frame's payload
  bool have_info_ = false;
  M2vFrameInfoTok info_;
  std::uint32_t collected_ = 0;
  BitReader br_;
  int mb_ = 0;
  int frames_done_ = 0;
  std::size_t bytes_touched_ = 0;
};

class M2vIsiq final : public kpn::Process {
 public:
  M2vIsiq(TaskId id, std::string name, int total_blocks,
          const SharedCodecTables* tables, kpn::Fifo<M2vCoefTok>* in,
          kpn::Fifo<M2vDctTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return blocks_done_ >= total_blocks_; }

 private:
  int total_blocks_;
  const SharedCodecTables* tables_;
  kpn::Fifo<M2vCoefTok>* in_;
  kpn::Fifo<M2vDctTok>* out_;
  int blocks_done_ = 0;
};

class M2vIdct final : public kpn::Process {
 public:
  M2vIdct(TaskId id, std::string name, int total_blocks,
          kpn::Fifo<M2vDctTok>* in, kpn::Fifo<M2vResTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return blocks_done_ >= total_blocks_; }

 private:
  int total_blocks_;
  kpn::Fifo<M2vDctTok>* in_;
  kpn::Fifo<M2vResTok>* out_;
  int blocks_done_ = 0;
};

class M2vDecMv final : public kpn::Process {
 public:
  M2vDecMv(TaskId id, std::string name, const M2vStream* stream,
           kpn::Fifo<M2vMvCodeTok>* in, kpn::Fifo<M2vMvTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override {
    return mbs_done_ >= stream_->num_frames * stream_->mbs_per_frame();
  }

 private:
  const M2vStream* stream_;
  kpn::Fifo<M2vMvCodeTok>* in_;
  kpn::Fifo<M2vMvTok>* out_;
  int mbs_done_ = 0;
};

class M2vMemMan final : public kpn::Process {
 public:
  M2vMemMan(TaskId id, std::string name, int num_frames,
            kpn::Fifo<M2vFrameInfoTok>* fi, kpn::Fifo<M2vReleaseTok>* release,
            kpn::Fifo<M2vSlotTok>* slots_rd, kpn::Fifo<M2vSlotTok>* slots_wr,
            kpn::Fifo<M2vSlotTok>* slots_st);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override {
    return frames_issued_ >= num_frames_ && releases_seen_ >= releases_expected();
  }

 private:
  int releases_expected() const {
    // The last two frames' slots are never re-issued but still release.
    return num_frames_;
  }

  int num_frames_;
  kpn::Fifo<M2vFrameInfoTok>* fi_;
  kpn::Fifo<M2vReleaseTok>* release_;
  kpn::Fifo<M2vSlotTok>* slots_rd_;
  kpn::Fifo<M2vSlotTok>* slots_wr_;
  kpn::Fifo<M2vSlotTok>* slots_st_;
  int frames_issued_ = 0;
  int releases_seen_ = 0;
  int free_slots_ = 2;
};

class M2vPredictRd final : public kpn::Process {
 public:
  /// `ref_ready` carries one token per completed frame from writeMB; the
  /// first macroblock of every P frame consumes one, guaranteeing the
  /// reference slot is fully reconstructed before it is read.
  M2vPredictRd(TaskId id, std::string name, const M2vStream* stream,
               std::vector<kpn::FrameBuffer*> pool, kpn::Fifo<M2vMvTok>* mvs,
               kpn::Fifo<M2vSlotTok>* slots, kpn::Fifo<M2vDoneTok>* ref_ready,
               kpn::Fifo<M2vPredTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override {
    return mbs_done_ >= stream_->num_frames * stream_->mbs_per_frame();
  }

 private:
  const M2vStream* stream_;
  std::vector<kpn::FrameBuffer*> pool_;
  kpn::Fifo<M2vMvTok>* mvs_;
  kpn::Fifo<M2vSlotTok>* slots_;
  kpn::Fifo<M2vDoneTok>* ref_ready_;
  kpn::Fifo<M2vPredTok>* out_;
  int mbs_done_ = 0;
  int mb_in_frame_ = 0;
  M2vSlotTok slot_;
};

class M2vPredict final : public kpn::Process {
 public:
  M2vPredict(TaskId id, std::string name, int total_blocks,
             kpn::Fifo<M2vPredTok>* in, kpn::Fifo<M2vPredTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return blocks_done_ >= total_blocks_; }

 private:
  int total_blocks_;
  kpn::Fifo<M2vPredTok>* in_;
  kpn::Fifo<M2vPredTok>* out_;
  int blocks_done_ = 0;
};

class M2vAdd final : public kpn::Process {
 public:
  M2vAdd(TaskId id, std::string name, int total_blocks,
         kpn::Fifo<M2vResTok>* res, kpn::Fifo<M2vPredTok>* pred,
         kpn::Fifo<M2vReconTok>* out);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return blocks_done_ >= total_blocks_; }

 private:
  int total_blocks_;
  kpn::Fifo<M2vResTok>* res_;
  kpn::Fifo<M2vPredTok>* pred_;
  kpn::Fifo<M2vReconTok>* out_;
  int blocks_done_ = 0;
};

class M2vWriteMb final : public kpn::Process {
 public:
  M2vWriteMb(TaskId id, std::string name, const M2vStream* stream,
             std::vector<kpn::FrameBuffer*> pool, kpn::Fifo<M2vReconTok>* in,
             kpn::Fifo<M2vSlotTok>* slots, kpn::Fifo<M2vDoneTok>* out,
             kpn::Fifo<M2vDoneTok>* ref_ready);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override {
    return blocks_done_ >= stream_->num_frames * stream_->mbs_per_frame() * 4;
  }

 private:
  const M2vStream* stream_;
  std::vector<kpn::FrameBuffer*> pool_;
  kpn::Fifo<M2vReconTok>* in_;
  kpn::Fifo<M2vSlotTok>* slots_;
  kpn::Fifo<M2vDoneTok>* out_;
  kpn::Fifo<M2vDoneTok>* ref_ready_;
  int blocks_done_ = 0;
  int blocks_in_frame_ = 0;
  M2vSlotTok slot_;
};

class M2vStore final : public kpn::Process {
 public:
  M2vStore(TaskId id, std::string name, const M2vStream* stream,
           std::vector<kpn::FrameBuffer*> pool, kpn::FrameBuffer* display,
           kpn::Fifo<M2vDoneTok>* in, kpn::Fifo<M2vSlotTok>* slots,
           kpn::Fifo<M2vBandTok>* out, kpn::Fifo<M2vReleaseTok>* release);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return frames_done_ >= stream_->num_frames; }

  int bands_per_frame() const {
    return (stream_->height + kM2vBandLines - 1) / kM2vBandLines;
  }

 private:
  const M2vStream* stream_;
  std::vector<kpn::FrameBuffer*> pool_;
  kpn::FrameBuffer* display_;
  kpn::Fifo<M2vDoneTok>* in_;
  kpn::Fifo<M2vSlotTok>* slots_;
  kpn::Fifo<M2vBandTok>* out_;
  kpn::Fifo<M2vReleaseTok>* release_;
  bool copying_ = false;
  int band_ = 0;
  M2vSlotTok slot_;
  int frames_done_ = 0;
};

class M2vOutput final : public kpn::Process {
 public:
  M2vOutput(TaskId id, std::string name, const M2vStream* stream,
            const kpn::FrameBuffer* display, kpn::Fifo<M2vBandTok>* in);
  bool can_fire() const override;
  void run(sim::TaskContext& ctx) override;
  bool done() const override { return frames_done_ >= stream_->num_frames; }

  std::uint64_t checksum() const { return checksum_; }
  /// Host copies of every displayed frame, for verification.
  const std::vector<std::vector<std::uint8_t>>& frames() const {
    return decoded_;
  }
  std::vector<std::vector<std::uint8_t>>& frames() { return decoded_; }

 private:
  const M2vStream* stream_;
  const kpn::FrameBuffer* display_;
  kpn::Fifo<M2vBandTok>* in_;
  int frames_done_ = 0;
  std::uint64_t checksum_ = 0;
  std::vector<std::uint8_t> staging_;  // bands accumulated into one frame
  std::vector<std::vector<std::uint8_t>> decoded_;
};

// ----------------------------------------------------------------- builder

struct M2vPipeline {
  M2vInput* input = nullptr;
  M2vHdr* hdr = nullptr;
  M2vVld* vld = nullptr;
  M2vIsiq* isiq = nullptr;
  M2vIdct* idct = nullptr;
  M2vDecMv* decmv = nullptr;
  M2vMemMan* memman = nullptr;
  M2vPredictRd* predictrd = nullptr;
  M2vPredict* predict = nullptr;
  M2vAdd* add = nullptr;
  M2vWriteMb* writemb = nullptr;
  M2vStore* store = nullptr;
  M2vOutput* output = nullptr;
  kpn::FrameBuffer* frame0 = nullptr;
  kpn::FrameBuffer* frame1 = nullptr;
  kpn::FrameBuffer* display = nullptr;
};

/// Build the 13-task decoder. `stream` and `tables` must outlive the net.
/// A non-empty `prefix` is prepended to every task, fifo and frame-buffer
/// name (phased streaming scenarios instantiate the decoder per phase).
M2vPipeline add_m2v_decoder(kpn::Network& net, const M2vStream& stream,
                            const SharedCodecTables& tables,
                            const std::string& prefix = "");

}  // namespace cms::apps
