#include "opt/blob_protocol.hpp"

#include <exception>
#include <stdexcept>
#include <utility>

#include "common/serialize.hpp"

namespace cms::opt {

namespace {

using serialize::ByteReader;
using serialize::ByteWriter;

std::string writer_to_string(ByteWriter& w) {
  const std::vector<std::uint8_t>& b = w.bytes();
  return std::string(reinterpret_cast<const char*>(b.data()), b.size());
}

void check_header(ByteReader& r, std::uint32_t want_magic, const char* what) {
  const std::uint32_t magic = r.fixed32();
  if (magic != want_magic)
    r.fail(std::string("bad ") + what + " magic (not a blob protocol peer)");
  const std::uint32_t version = r.fixed32();
  if (version != kBlobProtocolVersion)
    r.fail("unsupported blob protocol version " + std::to_string(version) +
           " (expected " + std::to_string(kBlobProtocolVersion) + ")");
}

/// A digest names a file under the server's export (DirBackend joins it
/// onto the directory), so a peer-supplied one must be a plain token:
/// anything with a separator, a dot or an absolute path could reach
/// outside the export. Real digests are 32 hex characters.
bool is_blob_digest(const std::string& digest) {
  if (digest.empty() || digest.size() > 128) return false;
  for (const char c : digest) {
    const bool token = (c >= '0' && c <= '9') || (c >= 'A' && c <= 'Z') ||
                       (c >= 'a' && c <= 'z') || c == '_' || c == '-';
    if (!token) return false;
  }
  return true;
}

BlobOp read_op(ByteReader& r) {
  const std::uint8_t op = r.u8();
  if (op > static_cast<std::uint8_t>(BlobOp::kList))
    r.fail("unknown blob op " + std::to_string(op));
  return static_cast<BlobOp>(op);
}

/// varint length + raw bytes + FNV-1a 64 checksum: the only element of
/// the protocol that carries bulk data, so it is the only one with its
/// own end-to-end integrity check (framing alone cannot detect a
/// middlebox or buffer-management bug scrambling payload bytes).
void write_checked_bytes(ByteWriter& w, const StoreBackend::Blob& bytes) {
  w.varint(bytes.size());
  w.raw(bytes.data(), bytes.size());
  w.fixed64(serialize::fnv1a64(bytes.data(), bytes.size()));
}

StoreBackend::Blob read_checked_bytes(ByteReader& r) {
  const std::uint64_t n = r.varint();
  if (n > r.remaining()) r.fail("truncated blob payload");
  const std::uint8_t* p = r.raw(static_cast<std::size_t>(n));
  StoreBackend::Blob bytes(p, p + n);
  const std::uint64_t want = r.fixed64();
  if (serialize::fnv1a64(bytes.data(), bytes.size()) != want)
    r.fail("blob payload checksum mismatch");
  return bytes;
}

}  // namespace

std::string encode_blob_request(const BlobRequest& req) {
  ByteWriter w;
  w.fixed32(kBlobRequestMagic);
  w.fixed32(kBlobProtocolVersion);
  w.u8(static_cast<std::uint8_t>(req.op));
  w.u8(static_cast<std::uint8_t>(req.kind));
  w.str(req.digest);
  if (req.op == BlobOp::kPut) write_checked_bytes(w, req.bytes);
  return writer_to_string(w);
}

BlobRequest decode_blob_request(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size(), "blob request");
  check_header(r, kBlobRequestMagic, "request");
  BlobRequest req;
  req.op = read_op(r);
  const std::uint8_t kind = r.u8();
  if (kind >= kBlobKinds)
    r.fail("unknown blob kind " + std::to_string(kind));
  req.kind = static_cast<BlobKind>(kind);
  req.digest = r.str();
  if (req.op != BlobOp::kPing && req.op != BlobOp::kList &&
      !is_blob_digest(req.digest))
    r.fail("invalid blob digest (want 1-128 of [0-9A-Za-z_-])");
  if (req.op == BlobOp::kPut) req.bytes = read_checked_bytes(r);
  if (!r.done()) r.fail("trailing bytes after blob request");
  return req;
}

std::string encode_blob_response(const BlobResponse& resp) {
  ByteWriter w;
  w.fixed32(kBlobResponseMagic);
  w.fixed32(kBlobProtocolVersion);
  w.u8(static_cast<std::uint8_t>(resp.op));
  w.u8(static_cast<std::uint8_t>(resp.status));
  if (resp.status == BlobStatus::kError) {
    w.str(resp.error);
    return writer_to_string(w);
  }
  if (resp.status == BlobStatus::kOk) {
    switch (resp.op) {
      case BlobOp::kPing:
        w.str(resp.server);
        break;
      case BlobOp::kGet:
        write_checked_bytes(w, resp.bytes);
        break;
      case BlobOp::kPut:
        break;
      case BlobOp::kStat:
        w.fixed64(resp.size);
        break;
      case BlobOp::kRemove:
        w.u8(static_cast<std::uint8_t>(resp.remove_outcome));
        break;
      case BlobOp::kList:
        w.varint(resp.rows.size());
        for (const StoreBackend::ListedBlob& row : resp.rows) {
          w.str(row.digest);
          w.fixed64(row.bytes);
        }
        break;
    }
  }
  return writer_to_string(w);
}

BlobResponse decode_blob_response(const std::string& payload) {
  ByteReader r(reinterpret_cast<const std::uint8_t*>(payload.data()),
               payload.size(), "blob response");
  check_header(r, kBlobResponseMagic, "response");
  BlobResponse resp;
  resp.op = read_op(r);
  const std::uint8_t status = r.u8();
  if (status > static_cast<std::uint8_t>(BlobStatus::kError))
    r.fail("unknown blob status " + std::to_string(status));
  resp.status = static_cast<BlobStatus>(status);
  if (resp.status == BlobStatus::kError) {
    resp.error = r.str();
  } else if (resp.status == BlobStatus::kOk) {
    switch (resp.op) {
      case BlobOp::kPing:
        resp.server = r.str();
        break;
      case BlobOp::kGet:
        resp.bytes = read_checked_bytes(r);
        break;
      case BlobOp::kPut:
        break;
      case BlobOp::kStat:
        resp.size = r.fixed64();
        break;
      case BlobOp::kRemove: {
        const std::uint8_t oc = r.u8();
        if (oc > static_cast<std::uint8_t>(StoreBackend::RemoveOutcome::kFailed))
          r.fail("unknown remove outcome " + std::to_string(oc));
        resp.remove_outcome = static_cast<StoreBackend::RemoveOutcome>(oc);
        break;
      }
      case BlobOp::kList: {
        // Each row costs at least 9 bytes on the wire; a count beyond
        // what the payload could hold is corruption, not a huge store.
        const std::uint64_t n = r.count("blob list");
        resp.rows.reserve(static_cast<std::size_t>(n));
        for (std::uint64_t i = 0; i < n; ++i) {
          StoreBackend::ListedBlob row;
          row.digest = r.str();
          row.bytes = r.fixed64();
          resp.rows.push_back(std::move(row));
        }
        break;
      }
    }
  }
  if (!r.done()) r.fail("trailing bytes after blob response");
  return resp;
}

std::string handle_blob_request(StoreBackend& backend,
                                const std::string& payload, bool writable) {
  BlobResponse resp;
  try {
    const BlobRequest req = decode_blob_request(payload);
    resp.op = req.op;
    switch (req.op) {
      case BlobOp::kPing:
        resp.status = BlobStatus::kOk;
        resp.server = backend.describe();
        break;
      case BlobOp::kGet:
        if (auto got = backend.get(req.kind, req.digest)) {
          resp.status = BlobStatus::kOk;
          resp.bytes = std::move(*got);
        } else {
          resp.status = BlobStatus::kMiss;
        }
        break;
      case BlobOp::kPut:
        if (!writable) throw std::runtime_error("blob store export is read-only");
        backend.put(req.kind, req.digest, req.bytes);
        resp.status = BlobStatus::kOk;
        break;
      case BlobOp::kStat:
        if (auto size = backend.stat(req.kind, req.digest)) {
          resp.status = BlobStatus::kOk;
          resp.size = *size;
        } else {
          resp.status = BlobStatus::kMiss;
        }
        break;
      case BlobOp::kRemove:
        if (!writable) throw std::runtime_error("blob store export is read-only");
        resp.status = BlobStatus::kOk;
        resp.remove_outcome = backend.remove(req.kind, req.digest);
        break;
      case BlobOp::kList:
        resp.status = BlobStatus::kOk;
        resp.rows = backend.list(req.kind);
        break;
    }
  } catch (const std::exception& e) {
    resp.status = BlobStatus::kError;
    resp.error = e.what();
  }
  return encode_blob_response(resp);
}

std::string blob_error_response(const std::string& message) {
  BlobResponse resp;
  resp.op = BlobOp::kPing;
  resp.status = BlobStatus::kError;
  resp.error = message;
  return encode_blob_response(resp);
}

}  // namespace cms::opt
