/**
 * @file
 * Self-tests of the repository benchmark: seeded generators, smoke-sized
 * runs of every workload, and the span bookkeeping of the tracer.
 *
 * Run with `python3 perfbench/run.py --self-test`.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <set>
#include <thread>

#include "bench.hh"
#include "gen.hh"
#include "gx86/imagefile.hh"
#include "trace.hh"

namespace perfbench
{
namespace
{

using risotto::gx86::serializeImage;

ImageShape
smallShape()
{
    ImageShape shape;
    shape.onceBlocks = 64;
    shape.loopIterations = 8;
    return shape;
}

bool
sameOrder(const std::vector<SuiteEntry> &a, const std::vector<SuiteEntry> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].proxy != b[i].proxy || a[i].host != b[i].host)
            return false;
    return true;
}

TEST(Generators, SuiteOrderIsASeededPermutation)
{
    const auto order = suiteOrder(7);
    EXPECT_TRUE(sameOrder(order, suiteOrder(7)));
    EXPECT_FALSE(sameOrder(order, suiteOrder(8)));
    // Every proxy exactly once on each host.
    std::set<std::pair<std::size_t, int>> seen;
    for (const SuiteEntry &e : order)
        seen.insert({e.proxy, static_cast<int>(e.host)});
    EXPECT_EQ(seen.size(), order.size());
    EXPECT_EQ(order.size(), 32u);
}

TEST(Generators, ColdImagesAreByteIdenticalPerSeed)
{
    const auto a = serializeImage(coldImage(3, 0, smallShape()));
    EXPECT_EQ(a, serializeImage(coldImage(3, 0, smallShape())));
    EXPECT_NE(a, serializeImage(coldImage(4, 0, smallShape())));
    EXPECT_NE(a, serializeImage(coldImage(3, 1, smallShape())));
}

TEST(Generators, ServeImagesAreByteIdenticalPerSeed)
{
    const auto a = serializeImage(serveImage(3, smallShape()));
    EXPECT_EQ(a, serializeImage(serveImage(3, smallShape())));
    EXPECT_NE(a, serializeImage(serveImage(4, smallShape())));
}

TEST(Generators, ColdImageHasTheRequestedBlockCount)
{
    // ~10 instructions per block: the text grows with the block count.
    const auto small = coldImage(1, 0, smallShape());
    ImageShape big = smallShape();
    big.onceBlocks *= 4;
    EXPECT_GT(coldImage(1, 0, big).text.size(), 3 * small.text.size());
}

class Smoke : public ::testing::TestWithParam<std::tuple<std::string, bool>>
{
};

TEST_P(Smoke, EveryGuestResultMatchesTheReference)
{
    const auto [workload, trace] = GetParam();
    Options options;
    options.workload = workload;
    options.seed = 5;
    options.seconds = 0;
    options.trace = trace;
    options.smoke = true;
    options.workDir = "smoke-work";
    std::filesystem::create_directories(options.workDir);
    const Outcome outcome = runWorkload(options);
    for (const std::string &failure : outcome.failures)
        ADD_FAILURE() << failure;
    EXPECT_GT(outcome.attempted, 0u);
    EXPECT_EQ(outcome.failed, 0u);
    if (!trace) {
        EXPECT_EQ(outcome.metrics.at("ok_frac").value, 1.0);
        EXPECT_GT(outcome.metrics.at("guest_mips").value, 0.0);
        EXPECT_GT(outcome.metrics.at("sim_mcycles").value, 0.0);
    } else {
        EXPECT_GT(outcome.metrics.at("machine.host_insns").value, 0.0);
        EXPECT_EQ(outcome.metrics.at("fallback.guest_insns").value, 0.0);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Smoke,
    ::testing::Combine(::testing::Values("suite-steady", "cold-image",
                                         "serve-warm"),
                       ::testing::Bool()));

TEST(Trace, SelfTimesSubtractTheUnionOfChildren)
{
    // Two overlapping children (as from two client threads) cover
    // [10, 70): the parent's self time is 100 - 60.
    const std::vector<Span> spans = {
        {1, 0, "parent", 0, 0, 100},
        {2, 1, "child", 0, 10, 50},
        {3, 1, "child", 0, 30, 70},
    };
    const auto self = selfTimesNs(spans);
    EXPECT_EQ(self[0], 40);
    EXPECT_EQ(self[1], 40);
    EXPECT_EQ(self[2], 40);
    EXPECT_TRUE(childrenNested(spans));
    const std::vector<Span> escaped = {
        {1, 0, "parent", 0, 0, 100},
        {2, 1, "child", 0, 90, 110},
    };
    EXPECT_FALSE(childrenNested(escaped));
}

TEST(Trace, RecordedScopesNestAndNeverGoNegative)
{
    Tracer tracer;
    {
        const Scope root(&tracer, "root");
        std::vector<std::jthread> workers;
        for (int t = 0; t < 3; ++t)
            workers.emplace_back([&, t] {
                const Scope worker(&tracer, "worker", t, &root);
                for (int i = 0; i < 50; ++i)
                    const Scope leaf(&tracer, "leaf", t, &worker);
            });
    }
    const auto spans = tracer.spans();
    ASSERT_EQ(spans.size(), 1u + 3u + 150u);
    EXPECT_TRUE(childrenNested(spans));
    for (const double self : selfTimesNs(spans))
        EXPECT_GE(self, 0);
    const auto totals = totalsByName(spans);
    EXPECT_EQ(totals.at("leaf").count, 150u);
    EXPECT_LE(totals.at("root").selfMs, totals.at("root").totalMs);
}

TEST(Samples, TailHasTenSamplesBeyondIt)
{
    Samples s;
    for (int i = 1; i <= 100; ++i)
        s.add(i);
    EXPECT_EQ(s.median(), 50.5);
    const Tail tail = s.tail();
    EXPECT_EQ(tail.percentile, 90);
    EXPECT_EQ(tail.value, 90);
    EXPECT_EQ(tail.beyond, 10u);
}

} // namespace
} // namespace perfbench
