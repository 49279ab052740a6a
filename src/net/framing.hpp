// The two wire framings net::SocketServer serves: how a connection's
// byte stream splits into request messages, and how a response payload
// goes back out. Each framing polices its own size cap; a message over
// it cannot be resynced, so the server answers its fatal response at the
// message's slot and closes the connection after flushing (see
// socket_server.hpp, "PROTOCOL FATALITY"). Nothing pipelined behind it is
// admitted.
//
//  * line_framing: newline-delimited text (examples/plan_server.cpp).
//    A trailing CR is stripped and blank lines are skipped (keep-alives,
//    CRLF artifacts). The cap applies on BOTH sides of the delimiter:
//    an extracted line over it is as fatal as an unterminated buffer
//    over it, so a terminated overlong line that arrives in one recv()
//    batch never reaches the handler. A response gets its newline added
//    unless it already ends in one.
//  * frame_framing: a 4-byte little-endian payload length, then exactly
//    that many payload bytes, both directions (examples/blob_server.cpp
//    and its client, opt::NetBackend). Payloads are opaque (any byte
//    value, '\n' and '\0' included) and may be empty. A declared length
//    over the cap is fatal on sight; its body is never awaited.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <string>

namespace cms::net {

/// Outcome of one framing-extraction attempt on a connection's read
/// buffer.
enum class Extract : std::uint8_t {
  kMessage,   // one complete message was popped into `out`
  kNeedMore,  // the buffer holds no complete message yet
  kFatal,     // the stream cannot be resynced (overlong / corrupt framing)
};

/// The two hooks SocketServer runs on its IO thread; neither may block.
struct Framing {
  /// Pop ONE complete message off the FRONT of `rbuf` into `out`, or
  /// return kFatal for a message (or unterminated prefix) too large to
  /// ever admit.
  std::function<Extract(std::string& rbuf, std::string& out)> extract;
  /// Wrap a response payload in wire bytes. Applied to handler results
  /// and to the server's canned responses alike.
  std::function<std::string(std::string payload)> encode;
};

/// Newline framing with lines capped at `max_line_bytes` (newline and
/// CR excluded).
Framing line_framing(std::size_t max_line_bytes);

/// Bytes of the little-endian length prefix on every frame.
inline constexpr std::size_t kFrameHeaderBytes = 4;

/// Wrap a payload in its wire framing (4-byte LE length + payload).
/// Shared by frame_framing's encode hook and blocking clients.
std::string frame_encode(const std::string& payload);

/// The payload length declared by the kFrameHeaderBytes bytes at
/// `header`. The one decoder of the prefix, for the server and clients.
std::uint32_t frame_length(const char* header);

/// Length-prefixed framing with payloads capped at `max_frame_bytes`.
/// Throws std::invalid_argument for a cap above UINT32_MAX, which no
/// 4-byte prefix can declare.
Framing frame_framing(std::size_t max_frame_bytes);

}  // namespace cms::net
