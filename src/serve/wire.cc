#include "serve/wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace uniclean {
namespace serve {

namespace {

/// One recv()'s buffer, and the first step of a frame body's growth.
constexpr size_t kReadChunk = 64 * 1024;

std::string ErrnoText(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

const char* OpName(Op op) {
  switch (op) {
    case Op::kPing:
      return "PING";
    case Op::kClean:
      return "CLEAN";
    case Op::kDelta:
      return "DELTA";
    case Op::kStats:
      return "STATS";
    case Op::kReload:
      return "RELOAD";
    case Op::kCloseSession:
      return "CLOSE_SESSION";
    case Op::kCancel:
      return "CANCEL";
    case Op::kPong:
      return "PONG";
    case Op::kJournalChunk:
      return "JOURNAL_CHUNK";
    case Op::kDataChunk:
      return "DATA_CHUNK";
    case Op::kCleanDone:
      return "CLEAN_DONE";
    case Op::kDeltaDone:
      return "DELTA_DONE";
    case Op::kStatsReply:
      return "STATS_REPLY";
    case Op::kOk:
      return "OK";
    case Op::kError:
      return "ERROR";
  }
  return "UNKNOWN";
}

bool IsRequestOp(uint8_t op) {
  return op >= static_cast<uint8_t>(Op::kPing) &&
         op <= static_cast<uint8_t>(Op::kCancel);
}

// --- body encoding ---------------------------------------------------------

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xFF));
  }
}

void PutLp(std::string* out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s.data(), s.size());
}

Result<uint8_t> BodyReader::U8() {
  if (remaining() < 1) return Status::Corruption("frame body: truncated u8");
  return static_cast<uint8_t>(body_[pos_++]);
}

Result<uint32_t> BodyReader::U32() {
  if (remaining() < 4) return Status::Corruption("frame body: truncated u32");
  uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<uint32_t>(static_cast<uint8_t>(body_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 4;
  return v;
}

Result<uint64_t> BodyReader::U64() {
  if (remaining() < 8) return Status::Corruption("frame body: truncated u64");
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<uint64_t>(static_cast<uint8_t>(body_[pos_ + i]))
         << (8 * i);
  }
  pos_ += 8;
  return v;
}

Result<std::string> BodyReader::Lp() {
  UC_ASSIGN_OR_RETURN(uint32_t len, U32());
  if (remaining() < len) {
    return Status::Corruption(
        "frame body: lp string declares " + std::to_string(len) +
        " bytes but only " + std::to_string(remaining()) + " remain");
  }
  std::string s = body_.substr(pos_, len);
  pos_ += len;
  return s;
}

// --- framed connection -----------------------------------------------------

FrameChannel::~FrameChannel() {
  if (fd_ >= 0) ::close(fd_);
}

void FrameChannel::ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

Status FrameChannel::ReadExact(char* out, size_t n, bool* clean_eof) {
  *clean_eof = false;
  size_t have = 0;
  while (have < n) {
    // Drain the buffer first.
    if (rpos_ < rbuf_.size()) {
      const size_t take =
          std::min(n - have, rbuf_.size() - rpos_);
      std::memcpy(out + have, rbuf_.data() + rpos_, take);
      rpos_ += take;
      have += take;
      continue;
    }
    rbuf_.resize(kReadChunk);
    rpos_ = 0;
    ssize_t got = ::recv(fd_, rbuf_.data(), rbuf_.size(), 0);
    if (got < 0) {
      if (errno == EINTR) {
        rbuf_.clear();
        continue;
      }
      rbuf_.clear();
      return Status::Internal(ErrnoText("recv"));
    }
    if (got == 0) {
      rbuf_.clear();
      if (have == 0) {
        *clean_eof = true;
        return Status::OK();
      }
      return Status::Corruption("connection closed mid-frame (truncated)");
    }
    rbuf_.resize(static_cast<size_t>(got));
  }
  return Status::OK();
}

Result<Frame> FrameChannel::ReadFrame() {
  char header[4];
  bool clean_eof = false;
  UC_RETURN_IF_ERROR(ReadExact(header, 4, &clean_eof));
  if (clean_eof) return Status::NotFound("peer closed the connection");
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(static_cast<uint8_t>(header[i])) << (8 * i);
  }
  if (len < kMinFramePayload) {
    return Status::Corruption("frame declares undersized payload (" +
                              std::to_string(len) + " bytes)");
  }
  if (len > kMaxFramePayload) {
    // Deliberately not read: an attacker-declared length must not drive an
    // allocation. The caller closes the connection.
    return Status::Corruption("frame declares oversized payload (" +
                              std::to_string(len) + " bytes, cap " +
                              std::to_string(kMaxFramePayload) + ")");
  }
  std::string prefix(kMinFramePayload, '\0');
  UC_RETURN_IF_ERROR(ReadExact(prefix.data(), prefix.size(), &clean_eof));
  if (clean_eof) return Status::Corruption("connection closed mid-frame");
  Frame frame;
  BodyReader reader(prefix);
  frame.tag = reader.U32().value();  // the 9 prefix bytes hold these three
  frame.op = static_cast<Op>(reader.U8().value());
  frame.deadline_ms = reader.U32().value();
  // The body grows as its bytes arrive, doubling from one receive buffer,
  // so a peer that declares a large payload and stalls holds about twice
  // what it sent, not what it declared.
  const size_t body_len = len - kMinFramePayload;
  size_t have = 0;
  while (have < body_len) {
    const size_t next = std::min(body_len, std::max(2 * have, kReadChunk));
    frame.body.resize(next);
    UC_RETURN_IF_ERROR(ReadExact(frame.body.data() + have, next - have,
                                 &clean_eof));
    if (clean_eof) return Status::Corruption("connection closed mid-frame");
    have = next;
  }
  return frame;
}

Status FrameChannel::WriteFrame(uint32_t tag, Op op, std::string_view body,
                                uint32_t deadline_ms) {
  std::string wire;
  wire.reserve(13 + body.size());
  PutU32(&wire, static_cast<uint32_t>(kMinFramePayload + body.size()));
  PutU32(&wire, tag);
  PutU8(&wire, static_cast<uint8_t>(op));
  PutU32(&wire, deadline_ms);
  wire.append(body.data(), body.size());
  size_t sent = 0;
  while (sent < wire.size()) {
    // MSG_NOSIGNAL: a disappeared peer must surface as a Status on this
    // thread, never take the daemon down with SIGPIPE.
    ssize_t n =
        ::send(fd_, wire.data() + sent, wire.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Internal(ErrnoText("send"));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::OK();
}

uint8_t WireErrorCode(const Status& status) {
  StatusCode code = status.code();
  // Pool id-space exhaustion reports OutOfRange at the StringPool layer;
  // over the wire it is serving pressure, not a caller mistake.
  if (code == StatusCode::kOutOfRange &&
      status.message().find("StringPool") != std::string::npos) {
    code = StatusCode::kResourceExhausted;
  }
  return static_cast<uint8_t>(code);
}

Status StatusFromWire(uint8_t code, std::string message) {
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      return Status::OK();
    case StatusCode::kInvalidArgument:
      return Status::InvalidArgument(std::move(message));
    case StatusCode::kNotFound:
      return Status::NotFound(std::move(message));
    case StatusCode::kCorruption:
      return Status::Corruption(std::move(message));
    case StatusCode::kOutOfRange:
      return Status::OutOfRange(std::move(message));
    case StatusCode::kFailedPrecondition:
      return Status::FailedPrecondition(std::move(message));
    case StatusCode::kUnimplemented:
      return Status::Unimplemented(std::move(message));
    case StatusCode::kInternal:
      return Status::Internal(std::move(message));
    case StatusCode::kResourceExhausted:
      return Status::ResourceExhausted(std::move(message));
    case StatusCode::kDeadlineExceeded:
      return Status::DeadlineExceeded(std::move(message));
    case StatusCode::kCancelled:
      return Status::Cancelled(std::move(message));
    case StatusCode::kUnavailable:
      return Status::Unavailable(std::move(message));
    case StatusCode::kDataLoss:
      return Status::DataLoss(std::move(message));
  }
  return Status::Internal("unknown wire error code " + std::to_string(code) +
                          ": " + message);
}

// --- sockets ---------------------------------------------------------------

Result<int> ListenTcp(const std::string& host, int port, int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket"));
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " + host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(ErrnoText("bind"));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    Status s = Status::Internal(ErrnoText("listen"));
    ::close(fd);
    return s;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      Status s = Status::Internal(ErrnoText("getsockname"));
      ::close(fd);
      return s;
    }
    *bound_port = static_cast<int>(ntohs(bound.sin_port));
  }
  return fd;
}

Result<int> ConnectTcp(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket"));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad connect address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(ErrnoText("connect"));
    ::close(fd);
    return s;
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<int> ListenUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad unix socket path (empty or longer than " +
                                   std::to_string(sizeof(addr.sun_path) - 1) +
                                   " bytes): " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket"));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  // A previous daemon's socket file would make bind fail with EADDRINUSE
  // even though nobody is listening; a live listener still loses the file
  // here, which is the standard unix-socket tradeoff — callers own the path.
  ::unlink(path.c_str());
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(ErrnoText("bind"));
    ::close(fd);
    return s;
  }
  if (::listen(fd, 128) != 0) {
    Status s = Status::Internal(ErrnoText("listen"));
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> ConnectUnix(const std::string& path) {
  sockaddr_un addr{};
  if (path.empty() || path.size() >= sizeof(addr.sun_path)) {
    return Status::InvalidArgument("bad unix socket path: " + path);
  }
  int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) return Status::Internal(ErrnoText("socket"));
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::Internal(ErrnoText("connect"));
    ::close(fd);
    return s;
  }
  return fd;
}

Result<int> ConnectAddress(const std::string& address) {
  if (address.rfind("unix:", 0) == 0) {
    return ConnectUnix(address.substr(5));
  }
  const size_t colon = address.rfind(':');
  if (colon == std::string::npos || colon + 1 == address.size()) {
    return Status::InvalidArgument(
        "bad address (want host:port or unix:PATH): " + address);
  }
  int port = 0;
  for (size_t i = colon + 1; i < address.size(); ++i) {
    if (address[i] < '0' || address[i] > '9') {
      return Status::InvalidArgument("bad port in address: " + address);
    }
    port = port * 10 + (address[i] - '0');
    if (port > 65535) {
      return Status::InvalidArgument("bad port in address: " + address);
    }
  }
  return ConnectTcp(address.substr(0, colon), port);
}

}  // namespace serve
}  // namespace uniclean
