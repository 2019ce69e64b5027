// serve::EvalService admission control: per-client weighted quotas with
// structured retry hints, weighted-fair dispatch under contention, and
// deadline shedding (docs/robustness.md).
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "ann/mlp.hpp"
#include "core/quantized_network.hpp"
#include "data/digits.hpp"
#include "serve/eval_service.hpp"
#include "serve/protocol.hpp"

namespace hynapse::serve {
namespace {

class AdmissionTest : public ::testing::Test {
 protected:
  AdmissionTest()
      : qnet_{ann::Mlp{{784, 12, 10}, 17}, 8},
        test_{data::generate_digits(60, 5)} {}

  ServiceOptions fast_options() const {
    ServiceOptions o;
    o.vdd_grid = {0.65};
    o.default_samples = 400;
    o.default_chips = 2;
    o.dispatchers = 2;
    return o;
  }

  static Request evaluate_request(const char* config, double vdd,
                                  const char* client = "") {
    Request r;
    r.kind = RequestKind::evaluate;
    r.configs = {*ConfigSpec::parse(config)};
    r.vdds = {vdd};
    r.client = client;
    return r;
  }

  core::QuantizedNetwork qnet_;
  data::Dataset test_;
};

TEST_F(AdmissionTest, QuotaRejectsGreedyClientWhileQueueHasRoom) {
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 8;
  opts.start_paused = true;
  opts.admission.enabled = true;
  opts.admission.client_share = 0.25;  // quota = max(1, floor(8*0.25)) = 2
  EvalService service{qnet_, test_, opts};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 2; ++i) {
    const auto id =
        service.try_submit(evaluate_request("hybrid2", 0.65, "greedy"));
    ASSERT_TRUE(id.has_value()) << "request " << i << " within quota";
    ids.push_back(*id);
  }

  // Third request from the same client: quota, not capacity.
  SubmitRejection rejection;
  EXPECT_FALSE(
      service.try_submit(evaluate_request("hybrid2", 0.65, "greedy"), {},
                         &rejection)
          .has_value());
  EXPECT_EQ(rejection.code, ErrorCode::quota_exceeded);
  EXPECT_FALSE(rejection.message.empty());
  EXPECT_GT(rejection.retry_after_ms, 0.0);

  // The queue itself has room: a different client still gets in.
  const auto peer =
      service.try_submit(evaluate_request("hybrid2", 0.65, "peer"));
  ASSERT_TRUE(peer.has_value());
  ids.push_back(*peer);

  service.resume();
  for (const std::uint64_t id : ids) {
    const Response r = service.wait(id);
    EXPECT_EQ(r.status, RequestStatus::done) << r.error;
  }
  const auto totals = service.totals();
  EXPECT_EQ(totals.quota_rejected, 1u);
  EXPECT_EQ(totals.rejected, 0u);  // never hit queue capacity
}

TEST_F(AdmissionTest, WeightedClientGetsLargerQuota) {
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 8;
  opts.start_paused = true;
  opts.admission.enabled = true;
  opts.admission.client_share = 0.25;
  opts.admission.weights["vip"] = 2.0;  // quota = floor(8*0.25*2) = 4
  EvalService service{qnet_, test_, opts};

  std::vector<std::uint64_t> ids;
  for (int i = 0; i < 4; ++i) {
    const auto id =
        service.try_submit(evaluate_request("hybrid2", 0.65, "vip"));
    ASSERT_TRUE(id.has_value()) << "vip request " << i;
    ids.push_back(*id);
  }
  SubmitRejection rejection;
  EXPECT_FALSE(service
                   .try_submit(evaluate_request("hybrid2", 0.65, "vip"), {},
                               &rejection)
                   .has_value());
  EXPECT_EQ(rejection.code, ErrorCode::quota_exceeded);

  service.resume();
  for (const std::uint64_t id : ids) {
    EXPECT_EQ(service.wait(id).status, RequestStatus::done);
  }
}

TEST_F(AdmissionTest, QueueFullRejectionCarriesRetryHint) {
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 1;
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  const auto first = service.try_submit(evaluate_request("hybrid2", 0.65));
  ASSERT_TRUE(first.has_value());

  SubmitRejection rejection;
  EXPECT_FALSE(service
                   .try_submit(evaluate_request("all6t", 0.65), {},
                               &rejection)
                   .has_value());
  EXPECT_EQ(rejection.code, ErrorCode::queue_full);
  EXPECT_FALSE(rejection.message.empty());
  EXPECT_GT(rejection.retry_after_ms, 0.0);

  service.resume();
  EXPECT_EQ(service.wait(*first).status, RequestStatus::done);
  EXPECT_EQ(service.totals().rejected, 1u);
}

TEST_F(AdmissionTest, FairDispatchPreventsStarvationOfQuietClient) {
  // One dispatcher, one request per batch: the dispatch order is exactly
  // the least-credit pick sequence.
  ServiceOptions opts = fast_options();
  opts.queue_capacity = 16;
  opts.dispatchers = 1;
  opts.max_batch = 1;
  opts.start_paused = true;
  opts.admission.enabled = true;
  opts.admission.client_share = 1.0;  // quotas out of the way
  EvalService service{qnet_, test_, opts};

  // A floods four requests, then B submits two. FIFO would run all of A
  // first; weighted-fair alternates: A B A B A A.
  std::vector<std::uint64_t> a_ids, b_ids;
  for (int i = 0; i < 4; ++i) {
    a_ids.push_back(
        service.submit(evaluate_request("hybrid2", 0.65 + 0.01 * i, "a")));
  }
  for (int i = 0; i < 2; ++i) {
    b_ids.push_back(
        service.submit(evaluate_request("all6t", 0.65 + 0.01 * i, "b")));
  }
  service.resume();

  std::vector<std::uint64_t> a_seq, b_seq;
  for (const std::uint64_t id : a_ids) {
    const Response r = service.wait(id);
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
    a_seq.push_back(r.stats.dispatch_seq);
  }
  for (const std::uint64_t id : b_ids) {
    const Response r = service.wait(id);
    ASSERT_EQ(r.status, RequestStatus::done) << r.error;
    b_seq.push_back(r.stats.dispatch_seq);
  }
  EXPECT_EQ(b_seq, (std::vector<std::uint64_t>{2, 4}))
      << "B must interleave with A's flood, not run after it";
  EXPECT_EQ(a_seq, (std::vector<std::uint64_t>{1, 3, 5, 6}));
}

TEST_F(AdmissionTest, ExpiredDeadlineShedsBeforeDispatch) {
  ServiceOptions opts = fast_options();
  opts.start_paused = true;
  EvalService service{qnet_, test_, opts};

  Request doomed = evaluate_request("hybrid2", 0.65);
  doomed.deadline_ms = 20.0;
  const std::uint64_t doomed_id = service.submit(doomed);
  // No deadline: unaffected by the shed pass.
  const std::uint64_t ok_id = service.submit(evaluate_request("all6t", 0.65));

  std::this_thread::sleep_for(std::chrono::milliseconds(80));
  service.resume();

  const Response shed = service.wait(doomed_id);
  EXPECT_EQ(shed.status, RequestStatus::failed);
  EXPECT_EQ(shed.code, ErrorCode::deadline_exceeded);
  EXPECT_FALSE(shed.error.empty());

  const Response ok = service.wait(ok_id);
  EXPECT_EQ(ok.status, RequestStatus::done) << ok.error;
  EXPECT_EQ(service.totals().deadline_expired, 1u);
}

TEST_F(AdmissionTest, GenerousDeadlineStillCompletes) {
  ServiceOptions opts = fast_options();
  EvalService service{qnet_, test_, opts};
  Request r = evaluate_request("hybrid2", 0.65);
  r.deadline_ms = 60'000.0;
  const Response got = service.wait(service.submit(r));
  EXPECT_EQ(got.status, RequestStatus::done) << got.error;
}

}  // namespace
}  // namespace hynapse::serve
