/**
 * @file
 * Fault-injection sweep over every lifecycle.* failpoint site.
 *
 * The contract under drill: an injected fault at any stage surfaces
 * as a *typed* LifecycleError, the in-flight transition is discarded,
 * the incumbent keeps serving, the host version only ever moves by a
 * completed deploy, and once the trigger disarms the loop converges
 * to the same decisions an undisturbed run makes. The live-serve
 * containment (a faulted sink drops the record, the client still gets
 * its Ack) is drilled at the ServeCore seam.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/failpoint.hh"
#include "lifecycle/controller.hh"
#include "lifecycle/error.hh"
#include "lifecycle/host.hh"
#include "lifecycle/replay.hh"
#include "lifecycle_test_util.hh"
#include "serve/server.hh"
#include "serve/registry.hh"

namespace {

using namespace wcnn;
using namespace wcnn::lifecycle_test;
namespace fp = core::failpoint;
using lifecycle::LifecycleController;
using lifecycle::LifecycleError;
using lifecycle::Stage;

class ChaosLifecycle : public testing::Test
{
  protected:
    void SetUp() override
    {
        fp::reset();
        if (!fp::compiledIn())
            GTEST_SKIP() << "failpoints compiled out";
    }
    void TearDown() override { fp::reset(); }
};

/** All five sites, in stage order. */
const char *const kSites[] = {
    "lifecycle.observe", "lifecycle.detect", "lifecycle.retrain",
    "lifecycle.shadow",  "lifecycle.promote",
};

TEST_F(ChaosLifecycle, EverySiteSurfacesTypedAndLeavesIncumbent)
{
    const auto incumbent = makeIncumbent();
    const lifecycle::Journal journal = promotionJournal(*incumbent);

    for (const char *site : kSites) {
        SCOPED_TRACE(site);
        serve::BundleRegistry registry;
        registry.swap(incumbent);
        lifecycle::RegistryHost host(registry);
        LifecycleController controller(host, testOptions());

        fp::armFromSpec(std::string(site) + "=always");
        std::size_t faults = 0;
        for (const lifecycle::ObservationRecord &rec :
             journal.records) {
            try {
                controller.record(rec);
            } catch (const LifecycleError &e) {
                ++faults;
                EXPECT_EQ(e.kind(), std::string("lifecycle"));
                EXPECT_NE(std::string(e.what()).find(site),
                          std::string::npos);
            }
        }
        fp::reset();

        // With the site always armed nothing can ever be promoted:
        // the incumbent is untouched and no transition half-applied.
        EXPECT_GT(faults, 0u);
        EXPECT_EQ(registry.version(), 1u);
        EXPECT_EQ(registry.active().get(), incumbent.get());
        EXPECT_EQ(controller.stats().promotions, 0u);
        EXPECT_EQ(controller.stage(), Stage::Monitoring);
    }
}

TEST_F(ChaosLifecycle, MidPromotionFaultKeepsRegistryConsistent)
{
    // Arm the gate itself: the fault fires after the candidate won
    // the comparison but before the swap. The incumbent must keep
    // serving, the candidate must be discarded, and the loop must
    // promote cleanly on the next drift once disarmed.
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    fp::armFromSpec("lifecycle.promote=nth:1");
    std::size_t faults = 0;
    for (const lifecycle::ObservationRecord &rec :
         promotionJournal(*incumbent).records) {
        try {
            controller.record(rec);
        } catch (const LifecycleError &) {
            ++faults;
        }
    }
    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(fp::fires("lifecycle.promote"), 1u);
    EXPECT_EQ(registry.version(), 1u);
    EXPECT_EQ(registry.active().get(), incumbent.get());
    EXPECT_EQ(controller.historyDepth(), 0u);
    fp::reset();

    // Disarmed, the still-drifted stream drives a fresh retrain and
    // the promotion completes. Records are predicted live by whatever
    // model is active, so once the candidate lands the error drops
    // and the loop settles — exactly one promotion.
    numeric::Rng rng(55);
    for (int i = 0; i < 48; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        lifecycle::ObservationRecord rec;
        rec.seq = 1000 + static_cast<std::uint64_t>(i);
        rec.x = {a, b};
        rec.predicted = registry.active()->predict(rec.x);
        rec.observed = {driftedSurface(a, b)};
        controller.record(rec);
    }
    EXPECT_EQ(controller.stats().promotions, 1u);
    EXPECT_EQ(registry.version(), 2u);
    EXPECT_EQ(controller.historyDepth(), 1u);
}

TEST_F(ChaosLifecycle, RetrainFaultIsContainedToOneCandidate)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    // First drift's retrain faults; the second drift's retrain runs
    // clean and promotes: blast radius is exactly one candidate.
    fp::armFromSpec("lifecycle.retrain=nth:1");
    const auto journal = promotionJournal(*incumbent);
    std::size_t faults = 0;
    for (const lifecycle::ObservationRecord &rec : journal.records) {
        try {
            controller.record(rec);
        } catch (const LifecycleError &) {
            ++faults;
        }
    }
    numeric::Rng rng(56);
    for (int i = 0; i < 48; ++i) {
        const double a = rng.uniform();
        const double b = rng.uniform();
        lifecycle::ObservationRecord rec;
        rec.seq = 1000 + static_cast<std::uint64_t>(i);
        rec.x = {a, b};
        rec.predicted = registry.active()->predict(rec.x);
        rec.observed = {driftedSurface(a, b)};
        controller.record(rec);
    }

    EXPECT_EQ(faults, 1u);
    EXPECT_EQ(controller.stats().promotions, 1u);
    EXPECT_EQ(registry.version(), 2u);
}

TEST_F(ChaosLifecycle, ObserveFaultDropsRecordNotTheStream)
{
    const auto incumbent = makeIncumbent();
    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());

    // A seeded tenth of the intakes fault; the surviving records
    // still drive the loop to a promotion (the stream is long enough
    // to absorb the losses).
    fp::armFromSpec("lifecycle.observe=prob:0.1:7");
    const auto incumbent_journal = promotionJournal(*incumbent);
    numeric::Rng rng(57);
    lifecycle::Journal extra;
    extra.inputDim = 2;
    extra.outputDim = 1;
    appendSegment(extra, *incumbent, rng, 32, Truth::Drifted);

    std::size_t faults = 0;
    const auto feed = [&](const lifecycle::Journal &journal) {
        for (const lifecycle::ObservationRecord &rec :
             journal.records) {
            try {
                controller.record(rec);
            } catch (const LifecycleError &) {
                ++faults;
            }
        }
    };
    feed(incumbent_journal);
    feed(extra);
    fp::reset();

    EXPECT_GT(faults, 0u);
    EXPECT_EQ(controller.stats().records,
              incumbent_journal.records.size() +
                  extra.records.size() - faults);
    EXPECT_GE(controller.stats().promotions, 1u);
}

TEST_F(ChaosLifecycle, SinkFaultIsInvisibleToTheClientPath)
{
    // The live-serve containment seam: ServeCore::observe calls the
    // sink under its lock; a faulted sink drops the record and counts
    // it, while the observation itself still succeeds (the session
    // would send its Ack).
    const auto incumbent = makeIncumbent();
    serve::ServeCore core({});
    core.deploy(incumbent);

    serve::BundleRegistry registry;
    registry.swap(incumbent);
    lifecycle::RegistryHost host(registry);
    LifecycleController controller(host, testOptions());
    core.setObservationSink([&controller](const numeric::Vector &x,
                                          const numeric::Vector &p,
                                          const numeric::Vector &o) {
        controller.record(x, p, o);
    });

    fp::armFromSpec("lifecycle.observe=nth:2");
    core.observe({0.25, 0.5}, {1.0});
    core.observe({0.5, 0.25}, {1.0}); // sink faults; must not escape
    core.observe({0.75, 0.5}, {1.0});
    fp::reset();

    const serve::ServeStats stats = core.statsSnapshot();
    EXPECT_EQ(stats.observations, 3u);
    EXPECT_EQ(stats.droppedObservations, 1u);
    EXPECT_EQ(controller.stats().records, 2u);
}

TEST_F(ChaosLifecycle, DisarmedRunIsBitIdenticalToUndisturbed)
{
    // Arm-then-disarm must leave no residue: a controller that
    // weathered a faulted prefix replays the *same* decision digest
    // on a fresh run of the same stream as one that never saw a
    // fault. (Faulted records are dropped from the stream, so we
    // compare two clean controllers, one constructed after a chaos
    // sweep ran in this process.)
    const auto incumbent = makeIncumbent();
    const lifecycle::Journal journal = promotionJournal(*incumbent);

    const auto digestOf = [&] {
        serve::BundleRegistry registry;
        registry.swap(incumbent);
        lifecycle::RegistryHost host(registry);
        LifecycleController controller(host, testOptions());
        for (const lifecycle::ObservationRecord &rec : journal.records)
            controller.record(rec);
        return controller.digest();
    };

    const std::string before = digestOf();

    fp::armFromSpec("lifecycle.detect=always");
    {
        serve::BundleRegistry registry;
        registry.swap(incumbent);
        lifecycle::RegistryHost host(registry);
        LifecycleController controller(host, testOptions());
        for (const lifecycle::ObservationRecord &rec : journal.records) {
            try {
                controller.record(rec);
            } catch (const LifecycleError &) {
            }
        }
        EXPECT_TRUE(controller.decisions().empty());
    }
    fp::reset();

    EXPECT_EQ(digestOf(), before);
}

} // namespace
