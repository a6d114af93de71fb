/** @file Unit tests for the latency cost model. */

#include <gtest/gtest.h>

#include "trace/cost.h"

namespace btrace {
namespace {

TEST(CostModel, DefaultSingleton)
{
    const CostModel &a = CostModel::def();
    const CostModel &b = CostModel::def();
    EXPECT_EQ(&a, &b);
}

TEST(CostModel, CopyScalesLinearly)
{
    const CostModel &m = CostModel::def();
    EXPECT_DOUBLE_EQ(m.copy(0), 0.0);
    EXPECT_DOUBLE_EQ(m.copy(200), 2 * m.copy(100));
}

TEST(CostModel, ContentionMonotonicAndCapped)
{
    const CostModel &m = CostModel::def();
    EXPECT_DOUBLE_EQ(m.contention(0), 0.0);
    EXPECT_LT(m.contention(1), m.contention(4));
    EXPECT_DOUBLE_EQ(m.contention(16), m.contention(1000));
}

TEST(CostModel, RelativeOrderMatchesDesignExpectations)
{
    // The model must preserve the cost ordering the paper's results
    // are built on: local RMW < shared RMW, userspace framework
    // overheads dominate kernel toggles.
    const CostModel &m = CostModel::def();
    EXPECT_LT(m.atomicLocal, m.atomicShared);
    EXPECT_LT(m.preemptToggle, m.tlsLookup);
    EXPECT_GT(m.lttngFramework, 10 * m.atomicLocal);
    EXPECT_GT(m.vtraceFramework, m.lttngFramework);
}

} // namespace
} // namespace btrace
