// CancelToken: cooperative cancellation + deadlines for long-running work.
//
// A token is created by whoever owns the request lifetime (the daemon on
// admission, a CLI on --deadline-ms, a test), shared by shared_ptr with the
// code doing the work, and *polled* — there is no preemption. The repair
// engines poll at committed-fix boundaries only, so a tripped token always
// unwinds between fixes and never leaves a torn relation (pinned by the
// cancellation property tests in cleaner_test / serve_test).
//
// IsCancelled() is the hot-path check: one relaxed atomic load when the
// token is live, plus a steady_clock read only while a deadline is armed
// and unexpired. Cancel() and deadline expiry latch permanently — a token
// never un-cancels — so callers may cache negative results but must not
// cache positive ones... which they get for free, since a tripped token
// makes the caller unwind.

#ifndef UNICLEAN_COMMON_CANCELLATION_H_
#define UNICLEAN_COMMON_CANCELLATION_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <utility>

#include "common/status.h"

namespace uniclean {
namespace common {

class CancelToken {
 public:
  using Clock = std::chrono::steady_clock;

  /// A token that never expires on its own; trips only via Cancel().
  CancelToken() = default;

  /// A token that trips itself once `deadline` passes.
  static std::shared_ptr<CancelToken> WithDeadline(Clock::time_point deadline) {
    auto token = std::make_shared<CancelToken>();
    token->deadline_ = deadline;
    token->has_deadline_.store(true, std::memory_order_release);
    return token;
  }

  /// A token that trips itself `timeout_ms` from now.
  static std::shared_ptr<CancelToken> WithTimeout(int64_t timeout_ms) {
    return WithDeadline(Clock::now() + std::chrono::milliseconds(timeout_ms));
  }

  /// Trips the token explicitly. Idempotent; the first caller's reason wins.
  void Cancel(std::string reason) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      if (cancelled_.load(std::memory_order_relaxed)) return;
      reason_ = std::move(reason);
    }
    cancelled_.store(true, std::memory_order_release);
  }

  /// True once the token has tripped (explicit Cancel or deadline expiry).
  /// Safe and cheap to call from any thread at any frequency.
  bool IsCancelled() const {
    if (cancelled_.load(std::memory_order_relaxed)) return true;
    if (fault_countdown_.load(std::memory_order_relaxed) >= 0 &&
        fault_countdown_.fetch_sub(1, std::memory_order_relaxed) == 0) {
      const_cast<CancelToken*>(this)->Cancel("cancelled by test countdown");
      return true;
    }
    if (has_deadline_.load(std::memory_order_acquire) &&
        Clock::now() >= deadline_) {
      deadline_hit_.store(true, std::memory_order_relaxed);
      cancelled_.store(true, std::memory_order_release);
      return true;
    }
    return false;
  }

  /// OK while live; DeadlineExceeded / Cancelled (with the reason) once
  /// tripped. The non-OK Status is what the aborted operation returns.
  Status status() const {
    if (!IsCancelled()) return Status::OK();
    if (deadline_hit_.load(std::memory_order_relaxed)) {
      return Status::DeadlineExceeded("deadline exceeded");
    }
    std::lock_guard<std::mutex> lock(mu_);
    return Status::Cancelled(reason_.empty() ? "cancelled" : reason_);
  }

  bool has_deadline() const {
    return has_deadline_.load(std::memory_order_acquire);
  }
  Clock::time_point deadline() const { return deadline_; }

  /// Test hook: the token self-cancels on the n-th IsCancelled() poll from
  /// now (n = 0 trips the very next poll). Lets the cancellation property
  /// tests stop a run at an arbitrary committed-fix boundary without timing
  /// races. Negative disarms.
  void CancelAfterChecksForTest(int64_t n) {
    fault_countdown_.store(n, std::memory_order_relaxed);
  }

 private:
  // cancelled_ is mutable because IsCancelled() — logically a read — latches
  // deadline expiry and the test countdown into the flag on first sight.
  mutable std::atomic<bool> cancelled_{false};
  mutable std::atomic<bool> deadline_hit_{false};
  std::atomic<bool> has_deadline_{false};
  Clock::time_point deadline_{};
  mutable std::atomic<int64_t> fault_countdown_{-1};
  mutable std::mutex mu_;  // guards reason_
  std::string reason_;
};

/// Polls `token` (which may be null) and returns its non-OK status if it
/// has tripped. The standard guard at phase boundaries and in hot loops:
///   UC_RETURN_IF_ERROR(common::PollCancel(cancel));
inline Status PollCancel(const CancelToken* token) {
  if (token != nullptr && token->IsCancelled()) return token->status();
  return Status::OK();
}

}  // namespace common
}  // namespace uniclean

#endif  // UNICLEAN_COMMON_CANCELLATION_H_
