// The unicleand wire protocol: length-prefixed binary frames over a byte
// stream (TCP loopback by default), multiplexed by per-request tags — the
// bazil/tra shape (fdbuf.c buffered framing + mux.c tagged RPC) in C++.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     payload length N (bytes after this field; 9 <= N <= cap)
//   4       4     tag (client-chosen request id; responses echo it)
//   8       1     opcode
//   9       4     deadline_ms (request frames: relative deadline for this
//                 request, 0 = use the server default --request-timeout-ms;
//                 response frames: always 0)
//   13      N-9   body (opcode-specific)
//
// A request's response is one or more frames carrying its tag: zero or more
// stream chunks (kJournalChunk / kDataChunk) followed by exactly one
// terminal frame (kCleanDone, kDeltaDone, kPong, kStatsReply, kOk or
// kError). Frames of different tags may interleave, which is what lets one
// connection pipeline requests; chunks of a single tag arrive in order.
//
// Body primitives: u8 / u32 / u64 little-endian, and "lp" strings — a u32
// byte length followed by the raw bytes. Every declared length is validated
// against the remaining payload, so a malformed body yields a Corruption
// error, never an out-of-bounds read.
//
// Request bodies:
//   kPing      arbitrary bytes (echoed back inside kPong)
//   kClean     u8 flags (kCleanTrack | kCleanWantData), lp ruleset name
//              ("" = sole configured ruleset), lp dirty CSV,
//              lp confidence CSV ("" = uniform 0.0)
//   kDelta     u64 session id, lp inserts CSV (header row + tuples;
//              "" = none), lp update ids
//              (newline-separated decimals), lp updates CSV (rows aligned
//              with the update ids), lp delete ids (newline-separated)
//   kStats     empty
//   kReload    lp ruleset name ("" = every configured ruleset)
//   kCloseSession  u64 session id
//   kCancel    u32 target tag: abandon that in-flight request on this
//              connection. Handled on the reader thread (it bypasses the
//              work queue, so it reaches even a stalled worker); the target
//              replies kError(Cancelled) in its own tag, the kCancel itself
//              replies kOk whether or not the tag was found (cancelling an
//              already-finished request is a benign race).
//
// Response bodies:
//   kPong       lp echo (the kPing bytes), u32 in-flight requests,
//               u32 queued requests, u32 ruleset count, then per ruleset
//               lp name + u64 engine fingerprint. The trailer is what lets
//               the cluster layer health-probe and fingerprint replicas
//               with a single cheap opcode
//   kJournalChunk / kDataChunk  raw CSV bytes (concatenate per tag)
//   kCleanDone  u64 session id (0 = untracked), u32 total fixes,
//               u32 journal entries, lp phase summary text
//   kDeltaDone  u32 generation, u32 affected tuples, u32 refinement rounds,
//               u32 fixes, lp inserted ids (one newline-terminated decimal
//               per insert, in request order)
//   kStatsReply the binary StatsSnapshot (serve/stats.h); f64 = a double's
//               IEEE-754 bits as a u64. u8 version (1), f64 uptime, u64
//               connections live + accepted, sessions live + opened,
//               protocol errors, rejected, cancelled, deadline-exceeded;
//               per request opcode (kPing..kCancel): u64 count, errors,
//               rejected, cancelled, deadline-exceeded, lp histogram token
//               (LatencyHistogram::Encode, "" = empty); u32 n, then n
//               rulesets: lp name, u64 fingerprint, reloads, master tuples,
//               cfds, mds, lp snapshot source, f64 load seconds, u64 memo
//               entries, bytes, hits, misses, evictions; u64 string-pool
//               interned, capacity, remaining, chunks, string bytes. Any
//               other version is Corruption: there is no fallback
//   kOk         lp message
//   kError      u8 wire error code (the numeric StatusCode: 1 =
//               InvalidArgument, 2 = NotFound, 3 = Corruption, 4 =
//               OutOfRange, 5 = FailedPrecondition, 6 = Unimplemented, 7 =
//               Internal, 8 = ResourceExhausted, 9 = DeadlineExceeded,
//               10 = Cancelled, 11 = Unavailable, 12 = DataLoss),
//               lp message,
//               u32 retry_after_ms (backoff hint; non-zero only with
//               Unavailable — wait at least this long before retrying)
//
// Replies decode exactly: a kPong, kCleanDone, kDeltaDone or kError body
// that is short or carries bytes past its last field is Corruption, as is
// an inserted id that is not all digits or exceeds INT32_MAX, and a chunk
// the request cannot receive (a kDataChunk for a DELTA, any chunk for a
// PING).
//
// Everything here is transport plumbing shared by the daemon and the
// client; policy (what CLEAN does) lives in server.h.

#ifndef UNICLEAN_SERVE_WIRE_H_
#define UNICLEAN_SERVE_WIRE_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"

namespace uniclean {
namespace serve {

/// Frame opcodes. Requests have the high bit clear, responses set.
enum class Op : uint8_t {
  // Requests.
  kPing = 0x01,
  kClean = 0x02,
  kDelta = 0x03,
  kStats = 0x04,
  kReload = 0x05,
  kCloseSession = 0x06,
  kCancel = 0x07,
  // Responses.
  kPong = 0x81,
  kJournalChunk = 0x82,
  kDataChunk = 0x83,
  kCleanDone = 0x84,
  kDeltaDone = 0x85,
  kStatsReply = 0x86,
  kOk = 0x87,
  kError = 0xEE,
};

/// Short opcode name for metrics / diagnostics, e.g. "CLEAN".
const char* OpName(Op op);

/// True for the request half of the opcode space.
bool IsRequestOp(uint8_t op);

/// kClean flag bits.
constexpr uint8_t kCleanTrack = 0x01;     ///< keep a tracked session open
constexpr uint8_t kCleanWantData = 0x02;  ///< also stream the repaired CSV

/// Hard cap on one frame's payload: a declared length beyond this is a
/// protocol error and closes the connection (the daemon must never be made
/// to allocate attacker-chosen amounts). Large cleans stream in chunks well
/// under this.
constexpr uint32_t kMaxFramePayload = 64u << 20;  // 64 MiB
/// Frame payloads smaller than tag + opcode + deadline are structurally
/// invalid.
constexpr uint32_t kMinFramePayload = 9;

/// One decoded frame.
struct Frame {
  uint32_t tag = 0;
  Op op = Op::kPing;
  /// Relative per-request deadline in milliseconds; 0 = server default.
  /// Meaningful on request frames only (responses carry 0).
  uint32_t deadline_ms = 0;
  std::string body;
};

// --- body encoding helpers -------------------------------------------------

void PutU8(std::string* out, uint8_t v);
void PutU32(std::string* out, uint32_t v);
void PutU64(std::string* out, uint64_t v);
/// Appends a length-prefixed string (u32 length + bytes).
void PutLp(std::string* out, std::string_view s);

/// Sequential body decoder; every getter validates against the remaining
/// bytes and fails with Corruption instead of reading out of bounds.
class BodyReader {
 public:
  explicit BodyReader(const std::string& body) : body_(body) {}

  Result<uint8_t> U8();
  Result<uint32_t> U32();
  Result<uint64_t> U64();
  /// Reads a length-prefixed string.
  Result<std::string> Lp();
  size_t remaining() const { return body_.size() - pos_; }

 private:
  const std::string& body_;
  size_t pos_ = 0;
};

// --- framed connection -----------------------------------------------------

/// A buffered, framed view of one socket fd (the fdbuf idiom). Reading and
/// writing are independently safe from one thread each; writers that share
/// a connection serialize whole frames through an external mutex (the
/// daemon's per-connection write lock). The FrameChannel owns the fd and
/// closes it on destruction.
class FrameChannel {
 public:
  explicit FrameChannel(int fd) : fd_(fd) {}
  ~FrameChannel();

  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;

  /// Reads one complete frame. The body buffer grows as its bytes arrive,
  /// so a peer holds about twice what it sent, never the length it
  /// declared. Fails with:
  ///   NotFound    — clean EOF at a frame boundary (peer closed)
  ///   Corruption  — malformed header (undersized / oversized declared
  ///                 length) or EOF mid-frame (truncated frame)
  ///   Internal    — transport error (errno text included)
  Result<Frame> ReadFrame();

  /// Writes one complete frame (retrying short writes). SIGPIPE-safe: a
  /// closed peer surfaces as Internal, not a signal. `deadline_ms` goes in
  /// the frame header; responses leave it 0.
  Status WriteFrame(uint32_t tag, Op op, std::string_view body,
                    uint32_t deadline_ms = 0);

  /// Shuts the socket down for writing (EOF at the peer) without closing
  /// the fd. Used by clients to signal "no more requests".
  void ShutdownWrite();

  int fd() const { return fd_; }

 private:
  /// Reads exactly n bytes into out. false + ok status = clean EOF before
  /// the first byte; false + error status otherwise.
  Status ReadExact(char* out, size_t n, bool* clean_eof);

  int fd_;
  std::string rbuf_;
  size_t rpos_ = 0;
};

/// Maps a Status to its one-byte wire error code (kError body). OutOfRange
/// from StringPool id-space exhaustion travels as ResourceExhausted: for a
/// serving daemon that is load pressure, not a caller mistake.
uint8_t WireErrorCode(const Status& status);

/// Reconstructs a Status from a wire error code + message.
Status StatusFromWire(uint8_t code, std::string message);

// --- sockets ---------------------------------------------------------------

/// Creates a listening TCP socket on host:port (port 0 = ephemeral).
/// Returns the fd; *bound_port receives the actual port.
Result<int> ListenTcp(const std::string& host, int port, int* bound_port);

/// Connects to host:port. Returns the connected fd.
Result<int> ConnectTcp(const std::string& host, int port);

/// Creates a listening AF_UNIX socket at `path`, unlinking any stale socket
/// file first. Filesystem permissions on the path are the access control.
Result<int> ListenUnix(const std::string& path);

/// Connects to an AF_UNIX socket at `path`.
Result<int> ConnectUnix(const std::string& path);

/// Connects by address string: "unix:PATH" for AF_UNIX, otherwise
/// "host:port" TCP (the cluster spec's replica address format).
Result<int> ConnectAddress(const std::string& address);

}  // namespace serve
}  // namespace uniclean

#endif  // UNICLEAN_SERVE_WIRE_H_
