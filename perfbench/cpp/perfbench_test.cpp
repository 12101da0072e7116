// Tests of the benchmark's own arithmetic: the inventory tables, the tail
// percentile rule and span self time.
#include <gtest/gtest.h>

#include "inventory.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(Inventory, ResNet50MatchesPublishedCounts) {
  const auto inv = resnet50_inventory(1);
  EXPECT_EQ(inv.size(), 161u);
  EXPECT_EQ(total_count(inv), 25557032u);
  EXPECT_EQ(inv.front().name, "conv1.weight");
  EXPECT_EQ(inv.back().name, "fc.bias");
}

TEST(Inventory, BertLargeMatchesPublishedCounts) {
  const auto inv = bert_large_inventory(1);
  EXPECT_EQ(inv.size(), 391u);
  EXPECT_EQ(total_count(inv), 335141888u);
  EXPECT_EQ(inv.front().count(), 30522u * 1024u);
}

TEST(Inventory, WidthDivisorKeepsTensorCountAndShrinksPayload) {
  EXPECT_EQ(resnet50_inventory(2).size(), 161u);
  EXPECT_EQ(bert_large_inventory(16).size(), 391u);
  EXPECT_LT(total_count(resnet50_inventory(2)), 25557032u / 3);
  EXPECT_LT(total_count(bert_large_inventory(16)), 335141888u / 200);
  // Smallest and largest tensors keep their roles: LayerNorm vectors and the
  // word embedding.
  const auto bert = bert_large_inventory(16);
  EXPECT_EQ(bert[3].count(), 64u);
  EXPECT_EQ(bert[0].count(), 1908u * 64u);
}

TEST(Percentile, TailNeedsTenSamplesBeyond) {
  EXPECT_EQ(samples_beyond(100, 0.9), 10u);
  EXPECT_TRUE(tail_supported(100, 0.9));
  EXPECT_FALSE(tail_supported(99, 0.9));
  EXPECT_EQ(min_samples_for_tail(0.9), 100u);
  EXPECT_EQ(min_samples_for_tail(0.99), 1000u);
  EXPECT_EQ(samples_beyond(1, 0.9), 0u);
  EXPECT_EQ(samples_beyond(0, 0.9), 0u);
}

TEST(Percentile, NearestRankAndMedian) {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  EXPECT_DOUBLE_EQ(percentile(v, 0.9), 90.0);
  EXPECT_DOUBLE_EQ(percentile(v, 0.5), 50.0);
  EXPECT_DOUBLE_EQ(median(v), 50.5);
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

Span make(const char* name, std::int64_t a, std::int64_t b, int parent) {
  Span s;
  s.name = name;
  s.start_ns = a;
  s.end_ns = b;
  s.parent = parent;
  return s;
}

TEST(SelfTime, SubtractsUnionOfDirectChildren) {
  // step [0,100) with children [10,30) and [20,50) (overlapping: union 40),
  // a grandchild inside the first (not subtracted twice) and a later root.
  std::vector<Span> spans = {make("step", 0, 100, -1), make("a", 10, 30, 0),
                             make("a.x", 12, 18, 1), make("b", 20, 50, 0),
                             make("next", 100, 200, -1)};
  EXPECT_EQ(self_ns(spans, 0), 60);
  EXPECT_EQ(self_ns(spans, 1), 14);
  EXPECT_EQ(self_ns(spans, 2), 6);
  EXPECT_EQ(self_ns(spans, 4), 100);
}

TEST(SelfTime, ChildrenAreClippedToParent) {
  EXPECT_EQ(covered_ns({{-5, 10}, {90, 120}}, 0, 100), 20);
  EXPECT_EQ(covered_ns({}, 0, 100), 0);
  EXPECT_EQ(covered_ns({{10, 20}, {20, 30}}, 0, 100), 20);
}

TEST(Recorder, NestsAndDropsWhenFullWithoutGrowing) {
  Recorder rec(2);
  rec.set_active(true);
  const int outer = rec.open("outer", 1, 0);
  const int inner = rec.open("inner", 1, 0);
  const int dropped = rec.open("dropped", 1, 0);
  rec.close(dropped);
  rec.close(inner);
  rec.close(outer);
  ASSERT_EQ(rec.spans().size(), 2u);
  EXPECT_EQ(rec.spans()[1].parent, outer);
  EXPECT_EQ(rec.dropped(), 1u);
  EXPECT_EQ(rec.spans().capacity(), 2u);
  rec.set_active(false);
  EXPECT_EQ(rec.open("off", 2, 0), -1);
}

}  // namespace
}  // namespace perfbench
