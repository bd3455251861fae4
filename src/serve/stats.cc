#include "serve/stats.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <initializer_list>

#include "common/latency_histogram.h"

namespace uniclean {
namespace serve {

namespace {

/// Decimal text of a counter.
std::string Num(uint64_t v) { return std::to_string(v); }

void PutU64s(std::string* out, std::initializer_list<uint64_t> values) {
  for (uint64_t v : values) PutU64(out, v);
}

Status ReadU64s(BodyReader* in, std::initializer_list<uint64_t*> fields) {
  for (uint64_t* field : fields) {
    UC_ASSIGN_OR_RETURN(*field, in->U64());
  }
  return Status::OK();
}

/// Doubles travel as their IEEE-754 bit pattern in a u64.
void PutF64(std::string* out, double v) {
  uint64_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU64(out, bits);
}

Status ReadF64(BodyReader* in, double* out) {
  UC_ASSIGN_OR_RETURN(uint64_t bits, in->U64());
  std::memcpy(out, &bits, sizeof(bits));
  if (!std::isfinite(*out)) {
    return Status::Corruption("stats: non-finite number");
  }
  return Status::OK();
}

}  // namespace

void OpStats::Merge(const OpStats& other) {
  count += other.count;
  errors += other.errors;
  rejected += other.rejected;
  cancelled += other.cancelled;
  deadline_exceeded += other.deadline_exceeded;
  LatencyHistogram merged;
  merged.MergeEncoded(hist);
  merged.MergeEncoded(other.hist);
  hist = merged.Encode();
}

// ---------------------------------------------------------------------------
// Codec (the body layout is documented with kStatsReply in serve/wire.h)
// ---------------------------------------------------------------------------

std::string EncodeStats(const StatsSnapshot& stats) {
  std::string out;
  PutU8(&out, kStatsVersion);
  PutF64(&out, stats.uptime_s);
  PutU64s(&out, {stats.connections_live, stats.connections_accepted,
                 stats.sessions_live, stats.sessions_opened,
                 stats.protocol_errors, stats.rejected, stats.cancelled,
                 stats.deadline_exceeded});
  for (const OpStats& op : stats.requests.ops) {
    PutU64s(&out, {op.count, op.errors, op.rejected, op.cancelled,
                   op.deadline_exceeded});
    PutLp(&out, op.hist);
  }
  PutU32(&out, static_cast<uint32_t>(stats.rulesets.size()));
  for (const RulesetStats& r : stats.rulesets) {
    PutLp(&out, r.name);
    PutU64s(&out, {r.fingerprint, r.reloads, r.master_tuples, r.cfds, r.mds});
    PutLp(&out, r.snapshot_source);
    PutF64(&out, r.snapshot_load_s);
    PutU64s(&out, {r.memo.entries, r.memo.bytes, r.memo.hits, r.memo.misses,
                   r.memo.evictions});
  }
  const data::StringPoolStats& pool = stats.string_pool;
  PutU64s(&out, {pool.interned, pool.capacity, pool.remaining, pool.chunks,
                 pool.string_bytes});
  return out;
}

Result<StatsSnapshot> DecodeStats(const std::string& body) {
  BodyReader in(body);
  UC_ASSIGN_OR_RETURN(uint8_t version, in.U8());
  if (version != kStatsVersion) {
    return Status::Corruption("stats: unsupported version " +
                              std::to_string(version));
  }
  StatsSnapshot stats;
  UC_RETURN_IF_ERROR(ReadF64(&in, &stats.uptime_s));
  UC_RETURN_IF_ERROR(ReadU64s(
      &in, {&stats.connections_live, &stats.connections_accepted,
            &stats.sessions_live, &stats.sessions_opened,
            &stats.protocol_errors, &stats.rejected, &stats.cancelled,
            &stats.deadline_exceeded}));
  for (OpStats& op : stats.requests.ops) {
    UC_RETURN_IF_ERROR(ReadU64s(&in, {&op.count, &op.errors, &op.rejected,
                                      &op.cancelled, &op.deadline_exceeded}));
    UC_ASSIGN_OR_RETURN(op.hist, in.Lp());
    LatencyHistogram check;
    if (!op.hist.empty() && !check.MergeEncoded(op.hist)) {
      return Status::Corruption("stats: malformed histogram token");
    }
  }
  // The count comes from the peer: entries are decoded one at a time, so a
  // lying count runs out of bytes instead of reserving memory.
  UC_ASSIGN_OR_RETURN(uint32_t n, in.U32());
  for (uint32_t i = 0; i < n; ++i) {
    RulesetStats r;
    UC_ASSIGN_OR_RETURN(r.name, in.Lp());
    UC_RETURN_IF_ERROR(ReadU64s(&in, {&r.fingerprint, &r.reloads,
                                      &r.master_tuples, &r.cfds, &r.mds}));
    UC_ASSIGN_OR_RETURN(r.snapshot_source, in.Lp());
    UC_RETURN_IF_ERROR(ReadF64(&in, &r.snapshot_load_s));
    UC_RETURN_IF_ERROR(ReadU64s(&in, {&r.memo.entries, &r.memo.bytes,
                                      &r.memo.hits, &r.memo.misses,
                                      &r.memo.evictions}));
    stats.rulesets.push_back(std::move(r));
  }
  data::StringPoolStats& pool = stats.string_pool;
  for (size_t* field :
       {&pool.interned, &pool.capacity, &pool.remaining, &pool.chunks}) {
    UC_ASSIGN_OR_RETURN(uint64_t v, in.U64());
    *field = static_cast<size_t>(v);
  }
  UC_ASSIGN_OR_RETURN(pool.string_bytes, in.U64());
  if (in.remaining() != 0) {
    return Status::Corruption("stats: " + std::to_string(in.remaining()) +
                              " trailing bytes");
  }
  return stats;
}

// ---------------------------------------------------------------------------
// Rendering
// ---------------------------------------------------------------------------

std::string JsonEscape(std::string_view s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else if (c == '\r') {
      out += "\\r";
    } else if (c == '\t') {
      out += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out.push_back(c);
    }
  }
  return out;
}

std::string FingerprintHex(uint64_t fp) {
  char buf[20];
  std::snprintf(buf, sizeof(buf), "%016" PRIx64, fp);
  return buf;
}

void AppendRequestsJson(const RequestStats& requests, std::string* out) {
  *out += "  \"requests\": {";
  for (int i = 0; i < kNumRequestOps; ++i) {
    const OpStats& op = requests.ops[i];
    // The latency block and the token come from the same decoded
    // histogram.
    LatencyHistogram h;
    h.MergeEncoded(op.hist);
    if (i > 0) *out += ',';
    *out += "\n    \"" + std::string(OpName(static_cast<Op>(i + 1))) +
            "\": {\"count\": " + Num(op.count) + ", \"errors\": " +
            Num(op.errors) + ", \"rejected\": " + Num(op.rejected) +
            ", \"cancelled\": " + Num(op.cancelled) +
            ", \"deadline_exceeded\": " + Num(op.deadline_exceeded) +
            ", \"latency_us\": {\"mean\": " + Num(h.mean()) +
            ", \"p50\": " + Num(h.p50()) + ", \"p95\": " + Num(h.p95()) +
            ", \"p99\": " + Num(h.p99()) + ", \"max\": " + Num(h.max()) +
            "}, \"hist\": \"" + h.Encode() + "\"}";
  }
  *out += "\n  },\n";
}

std::string StatsJson(const StatsSnapshot& stats) {
  std::string out = "{\n";
  out += "  \"uptime_s\": " + std::to_string(stats.uptime_s) + ",\n";
  out += "  \"connections\": {\"live\": " + Num(stats.connections_live) +
         ", \"accepted\": " + Num(stats.connections_accepted) + "},\n";
  out += "  \"sessions\": {\"live\": " + Num(stats.sessions_live) +
         ", \"opened\": " + Num(stats.sessions_opened) + "},\n";
  out += "  \"protocol_errors\": " + Num(stats.protocol_errors) + ",\n";
  out += "  \"overload\": {\"rejected\": " + Num(stats.rejected) +
         ", \"cancelled\": " + Num(stats.cancelled) +
         ", \"deadline_exceeded\": " + Num(stats.deadline_exceeded) + "},\n";
  AppendRequestsJson(stats.requests, &out);
  out += "  \"rulesets\": [";
  core::MemoStats memo_total;
  uint64_t snapshot_warmed = 0;
  for (size_t i = 0; i < stats.rulesets.size(); ++i) {
    const RulesetStats& r = stats.rulesets[i];
    if (i > 0) out += ',';
    memo_total += r.memo;
    if (!r.snapshot_source.empty()) ++snapshot_warmed;
    out += "\n    {\"name\": \"" + JsonEscape(r.name) +
           "\", \"fingerprint\": \"" + FingerprintHex(r.fingerprint) +
           "\", \"reloads\": " + Num(r.reloads) +
           ", \"master_tuples\": " + Num(r.master_tuples) +
           ", \"cfds\": " + Num(r.cfds) + ", \"mds\": " + Num(r.mds) +
           ", \"snapshot\": {\"source\": \"" + JsonEscape(r.snapshot_source) +
           "\", \"load_s\": " + std::to_string(r.snapshot_load_s) + "}" +
           ", \"memo\": {\"entries\": " + Num(r.memo.entries) +
           ", \"bytes\": " + Num(r.memo.bytes) + ", \"hits\": " +
           Num(r.memo.hits) + ", \"misses\": " + Num(r.memo.misses) +
           ", \"evictions\": " + Num(r.memo.evictions) + "}}";
  }
  out += "\n  ],\n";
  const data::StringPoolStats& pool = stats.string_pool;
  // The warm-state footprint rollup: everything a restart would have to
  // rebuild (or a snapshot restores) in one place.
  out += "  \"engine_memory\": {\"string_pool\": {\"interned\": " +
         Num(pool.interned) + ", \"chunks\": " + Num(pool.chunks) +
         ", \"string_bytes\": " + Num(pool.string_bytes) +
         "}, \"memo\": {\"entries\": " + Num(memo_total.entries) +
         ", \"bytes\": " + Num(memo_total.bytes) +
         "}, \"snapshot_warmed_engines\": " + Num(snapshot_warmed) + "},\n";
  out += "  \"string_pool\": {\"interned\": " + Num(pool.interned) +
         ", \"remaining\": " + Num(pool.remaining) +
         ", \"string_bytes\": " + Num(pool.string_bytes) + "}\n";
  out += "}\n";
  return out;
}

std::string StatsSummary(const StatsSnapshot& stats) {
  std::string out = "unicleand summary: " + Num(stats.connections_accepted) +
                    " connection(s), " + Num(stats.sessions_opened) +
                    " tracked session(s), " + Num(stats.protocol_errors) +
                    " protocol error(s)\n";
  out += "  overload: " + Num(stats.rejected) + " rejected, " +
         Num(stats.cancelled) + " cancelled, " + Num(stats.deadline_exceeded) +
         " deadline-exceeded\n";
  for (int i = 0; i < kNumRequestOps; ++i) {
    const OpStats& op = stats.requests.ops[i];
    if (op.count == 0 && op.rejected == 0) continue;
    out += "  " + std::string(OpName(static_cast<Op>(i + 1))) + ": " +
           Num(op.count) + " request(s), " + Num(op.errors) + " error(s)";
    if (op.rejected != 0) out += ", " + Num(op.rejected) + " rejected";
    if (op.cancelled != 0) out += ", " + Num(op.cancelled) + " cancelled";
    if (op.deadline_exceeded != 0) {
      out += ", " + Num(op.deadline_exceeded) + " deadline-exceeded";
    }
    LatencyHistogram h;
    h.MergeEncoded(op.hist);
    out += ", latency_us " + h.Summary() + "\n";
  }
  for (const RulesetStats& r : stats.rulesets) {
    const uint64_t lookups = r.memo.hits + r.memo.misses;
    out += "  ruleset " + r.name + ": " + Num(r.reloads) +
           " reload(s), memo hit rate " +
           std::to_string(lookups == 0
                              ? 0.0
                              : 100.0 * static_cast<double>(r.memo.hits) /
                                    static_cast<double>(lookups)) +
           "% (" + Num(r.memo.hits) + "/" + Num(lookups) + ")";
    if (!r.snapshot_source.empty()) {
      out += ", warm-started from snapshot in " +
             std::to_string(r.snapshot_load_s) + "s";
    }
    out += "\n";
  }
  return out;
}

}  // namespace serve
}  // namespace uniclean
