#include "net/framing.hpp"

#include <stdexcept>

namespace cms::net {

Framing line_framing(std::size_t max_line_bytes) {
  Framing f;
  f.extract = [max_line_bytes](std::string_view rbuf, std::size_t& pos,
                                std::string& out) {
    for (;;) {
      const std::size_t nl = rbuf.find('\n', pos);
      if (nl == std::string_view::npos) {
        // Unterminated garbage past the cap has no delimiter in sight:
        // there is no safe resync.
        return rbuf.size() - pos > max_line_bytes ? Extract::kFatal
                                                  : Extract::kNeedMore;
      }
      std::string_view line = rbuf.substr(pos, nl - pos);
      pos = nl + 1;
      if (!line.empty() && line.back() == '\r') line.remove_suffix(1);
      if (line.size() > max_line_bytes) return Extract::kFatal;
      if (line.empty()) continue;
      out.assign(line);
      return Extract::kMessage;
    }
  };
  f.encode = [](std::string payload) {
    if (payload.empty() || payload.back() != '\n') payload.push_back('\n');
    return payload;
  };
  return f;
}

std::string frame_encode(const std::string& payload) {
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  std::string wire;
  wire.reserve(kFrameHeaderBytes + payload.size());
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    wire.push_back(static_cast<char>((len >> (8 * i)) & 0xFF));
  wire += payload;
  return wire;
}

std::uint32_t frame_length(const char* header) {
  std::uint32_t len = 0;
  for (std::size_t i = 0; i < kFrameHeaderBytes; ++i)
    len |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(header[i]))
           << (8 * i);
  return len;
}

Framing frame_framing(std::size_t max_frame_bytes) {
  if (max_frame_bytes > 0xFFFFFFFFu)
    throw std::invalid_argument("frame_framing: max_frame_bytes exceeds u32");
  Framing f;
  f.extract = [max_frame_bytes](std::string_view rbuf, std::size_t& pos,
                                 std::string& out) {
    const std::string_view rest = rbuf.substr(pos);
    if (rest.size() < kFrameHeaderBytes) return Extract::kNeedMore;
    const std::uint32_t len = frame_length(rest.data());
    if (len > max_frame_bytes) return Extract::kFatal;
    if (rest.size() < kFrameHeaderBytes + len) return Extract::kNeedMore;
    out.assign(rest.substr(kFrameHeaderBytes, len));
    pos += kFrameHeaderBytes + len;
    return Extract::kMessage;
  };
  f.encode = [](std::string payload) { return frame_encode(payload); };
  return f;
}

}  // namespace cms::net
