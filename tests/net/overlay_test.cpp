#include "net/overlay.hpp"

#include <gtest/gtest.h>

#include "common/error.hpp"

namespace psn::net {
namespace {

TEST(OverlayTest, CompleteGraph) {
  const Overlay o = Overlay::complete(4);
  EXPECT_EQ(o.size(), 4u);
  for (ProcessId a = 0; a < 4; ++a) {
    EXPECT_EQ(o.neighbors(a).size(), 3u);
    for (ProcessId b = 0; b < 4; ++b) {
      if (a != b) {
        EXPECT_TRUE(o.has_edge(a, b));
        EXPECT_EQ(o.hop_distance(a, b), 1u);
      }
    }
  }
  EXPECT_TRUE(o.is_connected());
}

TEST(OverlayTest, StarTopology) {
  const Overlay o = Overlay::star(5, /*hub=*/0);
  EXPECT_EQ(o.neighbors(0).size(), 4u);
  EXPECT_EQ(o.neighbors(3).size(), 1u);
  // has_edge scans the shorter list: the leaf's, from either end.
  EXPECT_TRUE(o.has_edge(0, 3));
  EXPECT_TRUE(o.has_edge(3, 0));
  EXPECT_FALSE(o.has_edge(1, 2));
  EXPECT_EQ(o.hop_distance(1, 2), 2u);  // via the hub
  EXPECT_EQ(o.hop_distance(0, 4), 1u);
  EXPECT_TRUE(o.is_connected());
}

TEST(OverlayTest, RingTopology) {
  const Overlay o = Overlay::ring(6);
  EXPECT_EQ(o.hop_distance(0, 3), 3u);
  EXPECT_EQ(o.hop_distance(0, 5), 1u);
  EXPECT_TRUE(o.is_connected());
}

TEST(OverlayTest, LineTopology) {
  const Overlay o = Overlay::line(5);
  EXPECT_EQ(o.hop_distance(0, 4), 4u);
  EXPECT_EQ(o.neighbors(0).size(), 1u);
  EXPECT_EQ(o.neighbors(2).size(), 2u);
}

TEST(OverlayTest, SingleNodeGraphs) {
  EXPECT_TRUE(Overlay::complete(1).is_connected());
  EXPECT_TRUE(Overlay::ring(1).is_connected());
  EXPECT_EQ(Overlay::line(1).hop_distance(0, 0), 0u);
}

TEST(OverlayTest, DynamicEdgeChanges) {
  Overlay o(3);
  EXPECT_FALSE(o.is_connected());
  o.add_edge(0, 1);
  o.add_edge(1, 2);
  EXPECT_TRUE(o.is_connected());
  EXPECT_EQ(o.hop_distance(0, 2), 2u);
  o.remove_edge(1, 2);
  EXPECT_FALSE(o.is_connected());
  EXPECT_EQ(o.hop_distance(0, 2), SIZE_MAX);
}

TEST(OverlayTest, DuplicateEdgeIgnored) {
  Overlay o(2);
  o.add_edge(0, 1);
  o.add_edge(0, 1);
  o.add_edge(1, 0);
  EXPECT_EQ(o.neighbors(0).size(), 1u);
}

TEST(OverlayTest, Validation) {
  Overlay o(2);
  EXPECT_THROW(o.add_edge(0, 0), InvariantError);
  EXPECT_THROW(o.add_edge(0, 5), InvariantError);
  EXPECT_THROW(Overlay(0), InvariantError);
  EXPECT_THROW(Overlay::star(3, 7), InvariantError);
}

}  // namespace
}  // namespace psn::net
