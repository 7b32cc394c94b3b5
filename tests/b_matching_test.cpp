// Tests for the dynamic b-matching structure (core/b_matching.hpp) — the
// feasibility invariant of the paper's model.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>

#include "common/rng.hpp"
#include "core/b_matching.hpp"

namespace {

using namespace rdcn;
using namespace rdcn::core;

TEST(BMatching, AddHasRemove) {
  BMatching m(5, 2);
  EXPECT_FALSE(m.has(0, 1));
  m.add(0, 1);
  EXPECT_TRUE(m.has(0, 1));
  EXPECT_TRUE(m.has(1, 0));  // unordered
  EXPECT_EQ(m.size(), 1u);
  m.remove(1, 0);
  EXPECT_FALSE(m.has(0, 1));
  EXPECT_EQ(m.size(), 0u);
}

TEST(BMatching, DegreeTracking) {
  BMatching m(5, 3);
  m.add(0, 1);
  m.add(0, 2);
  m.add(0, 3);
  EXPECT_EQ(m.degree(0), 3u);
  EXPECT_EQ(m.degree(1), 1u);
  EXPECT_TRUE(m.full(0));
  EXPECT_FALSE(m.full(1));
  m.remove(0, 2);
  EXPECT_EQ(m.degree(0), 2u);
  EXPECT_FALSE(m.full(0));
}

TEST(BMatching, NeighborsReflectEdges) {
  BMatching m(6, 4);
  m.add(2, 3);
  m.add(2, 5);
  const auto& n2 = m.neighbors(2);
  EXPECT_EQ(n2.size(), 2u);
  EXPECT_TRUE(n2.contains(3));
  EXPECT_TRUE(n2.contains(5));
  EXPECT_TRUE(m.neighbors(3).contains(2));
}

TEST(BMatching, DegreeCapViolationAborts) {
  BMatching m(4, 1);
  m.add(0, 1);
  EXPECT_DEATH(m.add(0, 2), "degree cap");
}

TEST(BMatching, DuplicateAddAborts) {
  BMatching m(4, 2);
  m.add(0, 1);
  EXPECT_DEATH(m.add(1, 0), "already in matching");
}

TEST(BMatching, RemovingAbsentEdgeAborts) {
  BMatching m(4, 2);
  EXPECT_DEATH(m.remove(0, 1), "not in the matching");
}

TEST(BMatching, ClearResets) {
  BMatching m(5, 2);
  m.add(0, 1);
  m.add(2, 3);
  m.clear();
  EXPECT_EQ(m.size(), 0u);
  EXPECT_EQ(m.degree(0), 0u);
  EXPECT_FALSE(m.has(0, 1));
  m.add(0, 1);  // still usable
  EXPECT_TRUE(m.check_invariants());
}

TEST(BMatching, EdgeKeysEnumerate) {
  BMatching m(5, 2);
  m.add(0, 1);
  m.add(2, 4);
  auto keys = m.edge_keys();
  ASSERT_EQ(keys.size(), 2u);
  std::sort(keys.begin(), keys.end());
  EXPECT_EQ(keys[0], pair_key(0, 1));
  EXPECT_EQ(keys[1], pair_key(2, 4));
}

TEST(BMatching, InvariantsHoldUnderRandomChurn) {
  Xoshiro256 rng(55);
  const std::size_t n = 12, b = 3;
  BMatching m(n, b);
  for (int step = 0; step < 20000; ++step) {
    const Rack u = static_cast<Rack>(rng.next_below(n));
    Rack v = static_cast<Rack>(rng.next_below(n - 1));
    if (v >= u) ++v;
    if (m.has(u, v)) {
      m.remove(u, v);
    } else if (!m.full(u) && !m.full(v)) {
      m.add(u, v);
    }
    if (step % 1000 == 0) ASSERT_TRUE(m.check_invariants());
  }
  EXPECT_TRUE(m.check_invariants());
}

TEST(BMatching, BitmapMatchesReferenceSetUnderChurn) {
  // n² lands on both sides of a 64-bit word edge (4, 9, 64, 81, 4096,
  // 4225, 10000 bits), so a row that straddles words or a final partial
  // word is exercised; every step is audited against a std::set.
  for (const std::size_t n : {2u, 3u, 8u, 9u, 64u, 65u, 100u}) {
    for (const std::size_t b : {1u, 5u}) {
      SCOPED_TRACE("n=" + std::to_string(n) + " b=" + std::to_string(b));
      Xoshiro256 rng(1000 + n * 10 + b);
      BMatching m(n, b);
      std::set<std::uint64_t> reference;
      for (int step = 0; step < 3000; ++step) {
        const Rack u = static_cast<Rack>(rng.next_below(n));
        Rack v = static_cast<Rack>(rng.next_below(n - 1));
        if (v >= u) ++v;
        if (reference.count(pair_key(u, v)) != 0) {
          m.remove(v, u);
          reference.erase(pair_key(u, v));
        } else if (!m.full(u) && !m.full(v)) {
          m.add(u, v);
          reference.insert(pair_key(u, v));
        }
        ASSERT_EQ(m.has(u, v), reference.count(pair_key(u, v)) != 0);
        ASSERT_EQ(m.has(v, u), m.has(u, v));
        ASSERT_EQ(m.has_key(pair_key(u, v)), m.has(u, v));
        ASSERT_EQ(m.size(), reference.size());
        auto keys = m.edge_keys();
        std::sort(keys.begin(), keys.end());
        ASSERT_TRUE(std::equal(keys.begin(), keys.end(), reference.begin(),
                               reference.end()))
            << "step " << step;
        ASSERT_TRUE(m.check_invariants()) << "step " << step;
      }
      // Every pair, including untouched ones, agrees with the reference.
      for (Rack x = 0; x < n; ++x) {
        for (Rack y = 0; y < n; ++y) {
          if (x != y) {
            ASSERT_EQ(m.has(x, y), reference.count(pair_key(x, y)) != 0);
          }
        }
      }
    }
  }
}

TEST(BMatching, PerfectBMatchingFillsAllDegrees) {
  // Ring of 6 nodes with b=2: every node matched to both neighbors.
  BMatching m(6, 2);
  for (Rack i = 0; i < 6; ++i)
    m.add(i, static_cast<Rack>((i + 1) % 6));
  EXPECT_EQ(m.size(), 6u);
  for (Rack i = 0; i < 6; ++i) EXPECT_TRUE(m.full(i));
  EXPECT_TRUE(m.check_invariants());
}

}  // namespace
