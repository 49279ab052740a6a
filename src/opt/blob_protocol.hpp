// The blob wire protocol: versioned, checksummed request/response
// payloads carried inside net::FrameServer frames — the RPC layer
// between opt::NetBackend (client) and the blob_server daemon
// (ARCHITECTURE.md "Blob wire protocol").
//
// One request frame yields exactly one response frame. Payload layout
// (common/serialize.hpp codecs, little-endian):
//
//   request:  fixed32 magic "CMSB" | fixed32 version | u8 op | u8 kind
//             | str digest | [op == kPut: varint len + raw bytes
//                             + fixed64 FNV-1a checksum of the bytes]
//   response: fixed32 magic "CMSR" | fixed32 version | u8 op (echo)
//             | u8 status | payload:
//               kOk + kGet    -> varint len + raw bytes + fixed64 checksum
//               kOk + kStat   -> fixed64 size (0 = present, size unknown)
//               kOk + kRemove -> u8 RemoveOutcome
//               kOk + kList   -> varint count, then per row:
//                                str digest + fixed64 bytes
//               kOk + kPing   -> str server identity (describe())
//               kMiss         -> empty (get/stat only)
//               kError        -> str message
//
// Failure -> contract mapping (the StoreBackend contract, over a wire):
//   * kMiss is an ordinary miss — absent or vanished mid-read.
//   * kError means the SERVER failed (entry present but unreadable,
//     write failure, read-only violation, malformed request): the
//     client rethrows it as std::runtime_error. Never retried — the
//     request was delivered and answered.
//   * A malformed/truncated response payload, wrong magic, wrong
//     version or checksum mismatch is protocol corruption: decode
//     throws std::runtime_error. Never retried.
//   * Transport failures (dial/send/recv) never reach this layer; the
//     client retries those (the protocol is idempotent — blobs are
//     content-addressed and immutable) and throws when retries run out.
//
// decode_* throws std::runtime_error on any malformed input; encode_*
// never fails. handle_blob_request() is the entire server: decode,
// execute against a StoreBackend, encode — it never throws (every
// failure becomes a kError response), so any StoreBackend can be
// exported by wiring it to a FrameServer handler.
#pragma once

#include <cstdint>
#include <string>

#include "opt/store_backend.hpp"

namespace cms::opt {

inline constexpr std::uint32_t kBlobRequestMagic = 0x42534D43;   // "CMSB"
inline constexpr std::uint32_t kBlobResponseMagic = 0x52534D43;  // "CMSR"
inline constexpr std::uint32_t kBlobProtocolVersion = 1;

enum class BlobOp : std::uint8_t {
  kPing = 0,
  kGet = 1,
  kPut = 2,
  kStat = 3,
  kRemove = 4,
  kList = 5,
};

enum class BlobStatus : std::uint8_t {
  kOk = 0,
  kMiss = 1,   // absent or vanished: an ordinary miss
  kError = 2,  // the server failed; message carries the reason
};

struct BlobRequest {
  BlobOp op = BlobOp::kPing;
  BlobKind kind = BlobKind::kTrace;
  std::string digest;
  StoreBackend::Blob bytes;  // kPut payload
};

struct BlobResponse {
  BlobOp op = BlobOp::kPing;
  BlobStatus status = BlobStatus::kOk;
  std::string error;                        // kError
  StoreBackend::Blob bytes;                 // kGet + kOk
  std::uint64_t size = 0;                   // kStat + kOk
  StoreBackend::RemoveOutcome remove_outcome =
      StoreBackend::RemoveOutcome::kFailed;  // kRemove + kOk
  std::vector<StoreBackend::ListedBlob> rows;  // kList + kOk
  std::string server;                       // kPing + kOk: describe()
};

std::string encode_blob_request(const BlobRequest& req);
/// Throws std::runtime_error on malformed/truncated input, magic or
/// version mismatch, a put-payload checksum mismatch, or a get/put/
/// stat/remove digest that is not 1-128 characters of [0-9A-Za-z_-]
/// (the digest names a file under the server's export).
BlobRequest decode_blob_request(const std::string& payload);

std::string encode_blob_response(const BlobResponse& resp);
/// Throws std::runtime_error on malformed/truncated input, magic or
/// version mismatch, or a get-payload checksum mismatch.
BlobResponse decode_blob_response(const std::string& payload);

/// The server side of the protocol in one call: decode `payload`,
/// execute against `backend`, encode the outcome. Never throws — a
/// malformed request, a backend error or a write to a read-only export
/// all become kError responses. Wire it to a net::FrameServer handler
/// (examples/blob_server.cpp) or call it in-process (tests).
std::string handle_blob_request(StoreBackend& backend,
                                const std::string& payload,
                                bool writable = true);

/// A canned kError response payload (op kPing) for transport-level
/// server failures where no request was decoded: FrameServer's
/// busy_response / fatal_response.
std::string blob_error_response(const std::string& message);

}  // namespace cms::opt
