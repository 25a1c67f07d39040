#include "obs/recorder.h"

#include <gtest/gtest.h>

#include "common/json.h"

namespace smi::obs {
namespace {

TEST(Recorder, RegistrationHandsOutStablePointers) {
  Recorder rec(/*trace=*/false);
  FifoCounters* first = rec.AddFifo("f0");
  first->OnPush(0);
  // Blocks live in deques, so later registrations must not move `first`.
  for (int i = 1; i < 100; ++i) {
    rec.AddFifo("f" + std::to_string(i));
  }
  EXPECT_EQ(first->pushes, 1u);
  EXPECT_EQ(first->name, "f0");
}

TEST(Recorder, TracingFlagPropagatesToLinksAndKernels) {
  Recorder with(/*trace=*/true);
  EXPECT_TRUE(with.AddLink("l", 5)->trace);
  EXPECT_TRUE(with.AddKernel("k")->trace);
  Recorder without(/*trace=*/false);
  EXPECT_FALSE(without.AddLink("l", 5)->trace);
  EXPECT_FALSE(without.AddKernel("k")->trace);
}

TEST(Recorder, CountersJsonCarriesAllSections) {
  Recorder rec(/*trace=*/false);
  FifoCounters* f = rec.AddFifo("rank0/out");
  CkCounters* ck = rec.AddCk("cks 0.0");
  LinkCounters* link = rec.AddLink("link 0-1", 105);
  KernelProbe* k = rec.AddKernel("sender");

  f->OnPush(1);
  f->OnCommit(1, 1, 4);
  ck->OnForward(0, 2);
  ck->CountPollsTo(3);
  ck->OnHit(2);
  link->OnDeliver(7);
  k->OnResume(1);
  k->OnResume(2);
  rec.Finalize(10);

  const json::Value doc = rec.CountersJson();
  EXPECT_EQ(doc.at("total_cycles").as_int(), 10);
  const json::Value& fifo = doc.at("fifos").as_array().at(0);
  EXPECT_EQ(fifo.at("name").as_string(), "rank0/out");
  EXPECT_EQ(fifo.at("pushes").as_int(), 1);
  EXPECT_EQ(fifo.at("high_water").as_int(), 1);
  // Committed-empty over [0, 2): the occupancy set at cycle 1 is observed
  // from cycle 2 on.
  EXPECT_EQ(fifo.at("empty_cycles").as_int(), 2);
  const json::Value& ck_row = doc.at("cks").as_array().at(0);
  EXPECT_EQ(ck_row.at("forwarded").at("data").as_int(), 1);
  EXPECT_EQ(ck_row.at("forwarded").at("sync").as_int(), 0);
  EXPECT_EQ(ck_row.at("polls").as_int(), 10);  // flushed to the finish cycle
  EXPECT_EQ(ck_row.at("hits").as_int(), 1);
  const json::Value& link_row = doc.at("links").as_array().at(0);
  EXPECT_EQ(link_row.at("latency").as_int(), 105);
  EXPECT_EQ(link_row.at("busy_cycles").as_int(), 1);
  const json::Value& k_row = doc.at("kernels").as_array().at(0);
  EXPECT_EQ(k_row.at("active_cycles").as_int(), 2);
  EXPECT_EQ(k_row.at("lifetime_cycles").as_int(), 10);
  EXPECT_EQ(k_row.at("blocked_cycles").as_int(), 8);
}

TEST(Recorder, KernelLifetimeEndsAtDoneCycle) {
  Recorder rec(/*trace=*/false);
  KernelProbe* k = rec.AddKernel("early");
  k->OnResume(0);
  k->OnResume(1);
  k->OnDone(3);
  rec.Finalize(50);
  const json::Value row = rec.CountersJson().at("kernels").as_array().at(0);
  EXPECT_EQ(row.at("lifetime_cycles").as_int(), 4);  // finished at cycle 3
  EXPECT_EQ(row.at("blocked_cycles").as_int(), 2);
}

TEST(Recorder, SummaryAggregatesAcrossEntities) {
  Recorder rec(/*trace=*/false);
  FifoCounters* f0 = rec.AddFifo("a");
  FifoCounters* f1 = rec.AddFifo("b");
  f0->OnPush(0);
  f0->OnCommit(0, 3, 8);
  f1->OnPush(0);
  f1->OnPush(1);
  f1->OnCommit(1, 5, 8);
  LinkCounters* l = rec.AddLink("l", 1);
  l->OnDeliver(2);
  l->OnDeliver(3);
  rec.Finalize(6);
  const json::Value s = rec.SummaryJson();
  EXPECT_EQ(s.at("fifo_pushes").as_int(), 3);
  EXPECT_EQ(s.at("fifo_high_water").as_int(), 5);  // max, not sum
  EXPECT_EQ(s.at("link_busy_cycles").as_int(), 2);
  EXPECT_EQ(s.at("total_cycles").as_int(), 6);
}

TEST(Recorder, TrimAtOrAfterUndoesOvershoot) {
  // The parallel scheduler's final barrier: updates journaled past the
  // merged finish cycle are undone across every entity class at once.
  Recorder rec(/*trace=*/true);
  FifoCounters* f = rec.AddFifo("f");
  CkCounters* ck = rec.AddCk("ck");
  LinkCounters* link = rec.AddLink("l", 1);
  KernelProbe* k = rec.AddKernel("k");
  rec.SetJournaling(true);
  f->OnPush(5);
  f->OnPush(12);  // overshoot
  ck->OnHit(4);
  ck->OnHit(11);  // overshoot
  link->OnDeliver(6);
  link->OnDeliver(13);  // overshoot
  k->OnResume(7);
  k->OnResume(14);  // overshoot
  rec.TrimAtOrAfter(10);
  EXPECT_EQ(f->pushes, 1u);
  EXPECT_EQ(ck->hits, 1u);
  EXPECT_EQ(link->busy_cycles, 1u);
  EXPECT_EQ(k->resumes, 1u);
  ASSERT_EQ(link->deliveries.size(), 1u);
  EXPECT_EQ(link->deliveries[0], 6u);
}

TEST(Recorder, TraceDocumentIsChromeShaped) {
  Recorder rec(/*trace=*/true);
  KernelProbe* k = rec.AddKernel("worker");
  LinkCounters* link = rec.AddLink("link 0-1", 2);
  k->OnResume(0);
  k->OnResume(1);
  link->OnDeliver(5);
  rec.Finalize(8);
  const json::Value doc = rec.TraceJson();
  EXPECT_EQ(doc.at("displayTimeUnit").as_string(), "ns");
  const json::Array& events = doc.at("traceEvents").as_array();
  // Two process_name metas, one thread_name per entity, one "X" complete
  // event per kernel interval and per link delivery.
  ASSERT_EQ(events.size(), 6u);
  EXPECT_EQ(events[0].at("ph").as_string(), "M");
  bool saw_kernel = false, saw_hop = false;
  for (const json::Value& ev : events) {
    if (ev.at("ph").as_string() != "X") continue;
    if (ev.at("cat").as_string() == "kernel") {
      saw_kernel = true;
      EXPECT_EQ(ev.at("ts").as_int(), 0);
      EXPECT_EQ(ev.at("dur").as_int(), 2);
    } else if (ev.at("cat").as_string() == "hop") {
      saw_hop = true;
      // A hop occupies the wire for `latency` cycles ending at delivery.
      EXPECT_EQ(ev.at("ts").as_int(), 3);
      EXPECT_EQ(ev.at("dur").as_int(), 2);
    }
  }
  EXPECT_TRUE(saw_kernel);
  EXPECT_TRUE(saw_hop);
}

}  // namespace
}  // namespace smi::obs
