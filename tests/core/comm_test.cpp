#include "core/comm.h"

#include <gtest/gtest.h>

#include <string>

namespace smi::core {
namespace {

TEST(Communicator, WorldIsIdentity) {
  const Communicator world = Communicator::World(8);
  EXPECT_EQ(world.size(), 8);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(world.GlobalRank(i), i);
    EXPECT_EQ(world.CommRank(i), i);
    EXPECT_TRUE(world.Contains(i));
  }
}

TEST(Communicator, CustomMapping) {
  const Communicator comm({5, 2, 7});
  EXPECT_EQ(comm.size(), 3);
  EXPECT_EQ(comm.GlobalRank(0), 5);
  EXPECT_EQ(comm.GlobalRank(2), 7);
  EXPECT_EQ(comm.CommRank(2), 1);
  EXPECT_FALSE(comm.Contains(0));
  EXPECT_THROW(comm.CommRank(0), ConfigError);
  EXPECT_THROW(comm.GlobalRank(3), ConfigError);
  EXPECT_THROW(comm.GlobalRank(-1), ConfigError);
}

TEST(Communicator, RejectsInvalid) {
  EXPECT_THROW(Communicator({}), ConfigError);
  EXPECT_THROW(Communicator({1, 1}), ConfigError);
  EXPECT_THROW(Communicator({-2}), ConfigError);
  EXPECT_THROW(Communicator::World(0), ConfigError);
}

/// Message of the ConfigError `make` throws, or "" if it throws none.
template <typename Make>
std::string ErrorOf(Make make) {
  try {
    make();
  } catch (const ConfigError& e) {
    return e.what();
  }
  return "";
}

TEST(Communicator, ErrorsNameTheFirstBadEntryInListOrder) {
  // The first repeated value in list order, not the smallest or the last.
  EXPECT_EQ(ErrorOf([] { Communicator({0, 5, 2, 5, 2}); }),
            "duplicate rank 5 in communicator");
  EXPECT_EQ(ErrorOf([] { Communicator({9, 3, 9}); }),
            "duplicate rank 9 in communicator");
  // A negative rank has its own error, whichever comes first wins.
  EXPECT_EQ(ErrorOf([] { Communicator({0, -1, 0}); }),
            "negative rank in communicator");
  EXPECT_EQ(ErrorOf([] { Communicator({4, 4, -1}); }),
            "duplicate rank 4 in communicator");
  EXPECT_EQ(ErrorOf([] { Communicator({4000, 0, 4000}); }),
            "duplicate rank 4000 in communicator");
  EXPECT_EQ(ErrorOf([] { Communicator({7, 0, 3}); }), "");
}

TEST(Communicator, Subset) {
  const Communicator comm({5, 2, 7, 0});
  const Communicator sub = comm.Subset({3, 1});
  EXPECT_EQ(sub.size(), 2);
  EXPECT_EQ(sub.GlobalRank(0), 0);
  EXPECT_EQ(sub.GlobalRank(1), 2);
}

}  // namespace
}  // namespace smi::core
