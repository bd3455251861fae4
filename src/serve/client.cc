#include "serve/client.h"

#include <sys/socket.h>
#include <sys/time.h>

#include <chrono>
#include <thread>
#include <utility>

namespace uniclean {
namespace serve {

namespace {

std::string IdListText(const std::vector<data::TupleId>& ids) {
  std::string out;
  for (data::TupleId t : ids) {
    out += std::to_string(t);
    out += '\n';
  }
  return out;
}

// splitmix64: a cheap, stateless mixer — good enough to decorrelate the
// backoff of clients that share a seed-by-index convention, and fully
// deterministic for tests.
uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// Corruption when a reply body carries bytes past its last field.
Status ExpectEnd(const BodyReader& body, const char* what) {
  if (body.remaining() == 0) return Status::OK();
  return Status::Corruption(std::string(what) + " reply carries " +
                            std::to_string(body.remaining()) +
                            " trailing bytes");
}

}  // namespace

Result<Client> Client::Connect(const std::string& host, int port) {
  UC_ASSIGN_OR_RETURN(int fd, ConnectTcp(host, port));
  return Client(std::make_unique<FrameChannel>(fd));
}

Result<Client> Client::ConnectAddress(const std::string& address) {
  UC_ASSIGN_OR_RETURN(int fd, serve::ConnectAddress(address));
  return Client(std::make_unique<FrameChannel>(fd));
}

Status Client::SetIoTimeoutMs(int ms) {
  if (!channel_) return Status::FailedPrecondition("client is not connected");
  timeval tv{};
  tv.tv_sec = ms / 1000;
  tv.tv_usec = static_cast<suseconds_t>(ms % 1000) * 1000;
  if (::setsockopt(channel_->fd(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) !=
          0 ||
      ::setsockopt(channel_->fd(), SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) !=
          0) {
    return Status::Internal("setsockopt(SO_RCVTIMEO/SO_SNDTIMEO) failed");
  }
  return Status::OK();
}

Status Client::Send(uint32_t tag, Op op, std::string_view body,
                    uint32_t deadline_ms) {
  if (!channel_) return Status::FailedPrecondition("client is not connected");
  return channel_->WriteFrame(tag, op, body,
                              deadline_ms != 0 ? deadline_ms
                                               : default_deadline_ms_);
}

uint32_t Client::BackoffMs(int attempt) const {
  uint64_t backoff = retry_policy_.base_backoff_ms;
  // Saturating doubling: attempt counts can exceed the bits in a u64 when
  // a caller configures a huge retry budget.
  for (int i = 0; i < attempt && backoff < retry_policy_.max_backoff_ms; ++i) {
    backoff *= 2;
  }
  if (backoff > retry_policy_.max_backoff_ms) {
    backoff = retry_policy_.max_backoff_ms;
  }
  const uint64_t jitter =
      SplitMix64(retry_policy_.jitter_seed ^
                 (0x5bf03635ull * static_cast<uint64_t>(attempt + 1))) %
      (backoff / 2 + 1);
  uint64_t wait = backoff - backoff / 2 + jitter;  // in [ceil(b/2), b]
  if (last_retry_after_ms_ > wait) wait = last_retry_after_ms_;
  return static_cast<uint32_t>(wait);
}

bool Client::MaybeBackoff(int attempt) {
  if (attempt >= retry_policy_.max_retries) return false;
  ++retries_performed_;
  std::this_thread::sleep_for(std::chrono::milliseconds(BackoffMs(attempt)));
  return true;
}

Result<Frame> Client::ReadFor(uint32_t tag) {
  auto it = pending_.find(tag);
  if (it != pending_.end() && !it->second.empty()) {
    Frame frame = std::move(it->second.front());
    it->second.erase(it->second.begin());
    if (it->second.empty()) pending_.erase(it);
    return frame;
  }
  if (!channel_) return Status::FailedPrecondition("client is not connected");
  for (;;) {
    UC_ASSIGN_OR_RETURN(Frame frame, channel_->ReadFrame());
    if (frame.tag == tag) return frame;
    pending_[frame.tag].push_back(std::move(frame));
  }
}

Result<Frame> Client::ReadTerminal(uint32_t tag, Op expect,
                                   std::string* journal, std::string* data) {
  for (;;) {
    UC_ASSIGN_OR_RETURN(Frame frame, ReadFor(tag));
    switch (frame.op) {
      case Op::kJournalChunk:
        if (journal) *journal += frame.body;
        continue;
      case Op::kDataChunk:
        if (data) *data += frame.body;
        continue;
      case Op::kError: {
        BodyReader body(frame.body);
        UC_ASSIGN_OR_RETURN(uint8_t code, body.U8());
        UC_ASSIGN_OR_RETURN(std::string message, body.Lp());
        UC_ASSIGN_OR_RETURN(last_retry_after_ms_, body.U32());
        UC_RETURN_IF_ERROR(ExpectEnd(body, "error"));
        return StatusFromWire(code, std::move(message));
      }
      default:
        if (frame.op != expect) {
          return Status::Corruption(
              "unexpected reply opcode " + std::string(OpName(frame.op)) +
              " (wanted " + std::string(OpName(expect)) + ")");
        }
        return frame;
    }
  }
}

Status Client::Ping() { return PingEx().status(); }

Result<PingInfo> Client::PingEx() {
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kPing, "unicleand?"));
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kPong, nullptr, nullptr));
  PingInfo info;
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(std::string echo, body.Lp());
  UC_ASSIGN_OR_RETURN(info.inflight, body.U32());
  UC_ASSIGN_OR_RETURN(info.queued, body.U32());
  UC_ASSIGN_OR_RETURN(uint32_t count, body.U32());
  for (uint32_t i = 0; i < count; ++i) {
    UC_ASSIGN_OR_RETURN(std::string name, body.Lp());
    UC_ASSIGN_OR_RETURN(uint64_t fingerprint, body.U64());
    info.rulesets.emplace_back(std::move(name), fingerprint);
  }
  UC_RETURN_IF_ERROR(ExpectEnd(body, "pong"));
  return info;
}

Result<uint32_t> Client::SendClean(const CleanRequest& request) {
  std::string body;
  uint8_t flags = 0;
  if (request.track) flags |= kCleanTrack;
  if (request.want_data) flags |= kCleanWantData;
  PutU8(&body, flags);
  PutLp(&body, request.ruleset);
  PutLp(&body, request.data_csv);
  PutLp(&body, request.confidence_csv);
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kClean, body, request.deadline_ms));
  return tag;
}

Result<CleanReply> Client::AwaitClean(uint32_t tag) {
  CleanReply reply;
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kCleanDone, &reply.journal_csv,
                                   &reply.data_csv));
  BodyReader body(frame.body);
  UC_ASSIGN_OR_RETURN(reply.session_id, body.U64());
  UC_ASSIGN_OR_RETURN(reply.total_fixes, body.U32());
  UC_ASSIGN_OR_RETURN(reply.journal_entries, body.U32());
  UC_ASSIGN_OR_RETURN(reply.phase_summary, body.Lp());
  return reply;
}

Result<CleanReply> Client::Clean(const CleanRequest& request) {
  for (int attempt = 0;; ++attempt) {
    UC_ASSIGN_OR_RETURN(uint32_t tag, SendClean(request));
    Result<CleanReply> reply = AwaitClean(tag);
    // Only kUnavailable retries: the daemon rejected before doing any
    // work, so resending cannot double-apply.
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable ||
        !MaybeBackoff(attempt)) {
      return reply;
    }
  }
}

Result<DeltaReply> Client::Delta(const DeltaRequest& request) {
  std::string body;
  PutU64(&body, request.session_id);
  PutLp(&body, request.inserts_csv);
  PutLp(&body, IdListText(request.update_ids));
  PutLp(&body, request.updates_csv);
  PutLp(&body, IdListText(request.delete_ids));
  for (int attempt = 0;; ++attempt) {
    const uint32_t tag = next_tag_++;
    UC_RETURN_IF_ERROR(Send(tag, Op::kDelta, body, request.deadline_ms));
    Result<DeltaReply> reply = AwaitDelta(tag);
    if (reply.ok() || reply.status().code() != StatusCode::kUnavailable ||
        !MaybeBackoff(attempt)) {
      return reply;
    }
  }
}

Result<DeltaReply> Client::AwaitDelta(uint32_t tag) {
  DeltaReply reply;
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kDeltaDone, &reply.journal_csv,
                                   nullptr));
  BodyReader done(frame.body);
  UC_ASSIGN_OR_RETURN(reply.generation, done.U32());
  UC_ASSIGN_OR_RETURN(reply.affected, done.U32());
  UC_ASSIGN_OR_RETURN(reply.refinement_rounds, done.U32());
  UC_ASSIGN_OR_RETURN(reply.total_fixes, done.U32());
  UC_ASSIGN_OR_RETURN(std::string inserted, done.Lp());
  std::string line;
  for (char c : inserted) {
    if (c == '\n') {
      if (!line.empty()) {
        reply.inserted_ids.push_back(
            static_cast<data::TupleId>(std::stoul(line)));
      }
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  return reply;
}

Result<StatsSnapshot> Client::Stats() {
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kStats, ""));
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kStatsReply, nullptr, nullptr));
  return DecodeStats(frame.body);
}

Result<uint32_t> Client::SendReload(const std::string& ruleset) {
  std::string body;
  PutLp(&body, ruleset);
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kReload, body));
  return tag;
}

Result<std::string> Client::AwaitReload(uint32_t tag) {
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kOk, nullptr, nullptr));
  BodyReader body(frame.body);
  return body.Lp();
}

Result<std::string> Client::Reload(const std::string& ruleset) {
  UC_ASSIGN_OR_RETURN(uint32_t tag, SendReload(ruleset));
  return AwaitReload(tag);
}

Status Client::Cancel(uint32_t target_tag) {
  std::string body;
  PutU32(&body, target_tag);
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kCancel, body));
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kOk, nullptr, nullptr));
  (void)frame;
  return Status::OK();
}

Status Client::CloseSession(uint64_t session_id) {
  std::string body;
  PutU64(&body, session_id);
  const uint32_t tag = next_tag_++;
  UC_RETURN_IF_ERROR(Send(tag, Op::kCloseSession, body));
  UC_ASSIGN_OR_RETURN(Frame frame,
                      ReadTerminal(tag, Op::kOk, nullptr, nullptr));
  (void)frame;
  return Status::OK();
}

}  // namespace serve
}  // namespace uniclean
