// Public request/response types of the real PrefillOnly engine.
//
// A scoring request is the paper's §2.3 pattern: a long prompt (user
// profile + candidate item, or a credit history) plus a list of acceptable
// output tokens. The engine prefills the prompt and returns the constrained
// probability distribution over the allowed tokens — e.g. P(Yes) as a
// recommendation score. No decoding loop ever runs.
#ifndef SRC_CORE_REQUEST_H_
#define SRC_CORE_REQUEST_H_

#include <cstdint>
#include <vector>

#include "src/model/sampler.h"

namespace prefillonly {

struct ScoringRequest {
  // Sentinel for deadline_ms: the request never expires.
  static constexpr int64_t kNoDeadline = -1;

  int64_t user_id = 0;
  std::vector<int32_t> tokens;
  // Output restricted to these token ids; probabilities[i] corresponds to
  // allowed_tokens[i].
  std::vector<int32_t> allowed_tokens;

  // --- Request-lifecycle options (ISSUE 5) ----------------------------
  // Strict scheduling class: among waiting requests the scheduler always
  // prefers the highest priority, and applies its policy (SRJF score,
  // starvation aging) only WITHIN a class. Default 0; negative values
  // deprioritize.
  int32_t priority = 0;
  // Time budget in milliseconds, counted from submission, covering queueing
  // AND execution start. kNoDeadline (< 0) = none. 0 = already expired: the
  // engine rejects it at submission with kDeadlineExceeded. A positive
  // deadline that lapses while the request waits fails it with
  // kDeadlineExceeded at the next scheduling decision, before any prefill
  // work is spent on it.
  int64_t deadline_ms = kNoDeadline;
};

struct ScoringResponse {
  int64_t request_id = 0;
  int64_t user_id = 0;
  std::vector<TokenProbability> probabilities;
  // Convenience: probability of allowed_tokens[0] (e.g. P(Yes)).
  double score = 0.0;

  int64_t n_input = 0;
  int64_t n_cached = 0;          // prefix tokens served from the prefix cache
  // Requests co-executed in the same stacked prefill batch (ISSUE 4),
  // including this one; 1 = solo execution. Logits never depend on it.
  int64_t batch_size = 1;
  double queue_time_s = 0.0;     // arrival -> execution start
  double execute_time_s = 0.0;   // wall time of the prefill pass (for a
                                 // batched request: of the whole batch)
};

}  // namespace prefillonly

#endif  // SRC_CORE_REQUEST_H_
