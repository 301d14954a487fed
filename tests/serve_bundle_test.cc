/**
 * @file
 * ModelBundle: the deployable artifact. Pins the prediction identity
 * (predict == yStd.inverse(net.forward(xStd.transform(x))) exactly),
 * the bit-exact save/load round trip of the `wcnn-bundle` format, the
 * refusal of the retired formats (bare `wcnn-mlp`, `wcnn-nn-model`),
 * refused saves that leave the previous file intact, and typed
 * failures on malformed artifacts.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/failpoint.hh"
#include "data/dataset.hh"
#include "data/standardizer.hh"
#include "model/nn_model.hh"
#include "nn/mlp.hh"
#include "nn/serialize.hh"
#include "numeric/rng.hh"
#include "serve/bundle.hh"

using wcnn::data::Dataset;
using wcnn::data::Standardizer;
using wcnn::model::NnModel;
using wcnn::model::NnModelOptions;
using wcnn::nn::Activation;
using wcnn::nn::InitRule;
using wcnn::nn::LayerSpec;
using wcnn::nn::Mlp;
using wcnn::nn::SerializeError;
using wcnn::nn::Serializer;
using wcnn::numeric::Rng;
using wcnn::numeric::Vector;
using wcnn::serve::ModelBundle;

namespace fp = wcnn::core::failpoint;

namespace {

Mlp
makeNet(std::uint64_t seed)
{
    Rng rng(seed);
    return Mlp(3,
               {LayerSpec{8, Activation::logistic(1.0)},
                LayerSpec{2, Activation::identity()}},
               InitRule::SmallUniform, rng);
}

ModelBundle
makeBundle(std::uint64_t seed = 1)
{
    return ModelBundle::fromParts(
        makeNet(seed),
        Standardizer::fromMoments({1.0, 2.0, 3.0}, {0.5, 1.5, 2.0}),
        Standardizer::fromMoments({0.1, -0.2}, {2.0, 3.0}),
        {"a", "b", "c"}, {"u", "v"}, "test-tag");
}

/** A small fitted model over inputs (a, b) and output y. */
NnModel
fittedModel(std::uint64_t seed)
{
    Dataset ds({"a", "b"}, {"y"});
    Rng rng(seed);
    for (int i = 0; i < 24; ++i) {
        const double a = rng.uniform(0, 4);
        const double b = rng.uniform(0, 4);
        ds.add({a, b}, {a + 0.5 * b});
    }
    NnModelOptions opts;
    opts.hiddenUnits = {4};
    opts.train.maxEpochs = 50;
    opts.seed = 5;
    NnModel mdl(opts);
    mdl.fit(ds);
    return mdl;
}

/** Disarms every failpoint on scope exit, however the scope ends. */
struct DisarmOnExit
{
    ~DisarmOnExit() { fp::reset(); }
};

std::string
fileBytes(const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

/** load() refuses @p text with a SerializeError naming @p magic. */
void
expectRefusedNaming(const std::string &text, const std::string &magic)
{
    std::stringstream is(text);
    try {
        (void)ModelBundle::load(is);
        ADD_FAILURE() << magic << " artifact loaded";
    } catch (const SerializeError &e) {
        EXPECT_NE(std::string(e.what()).find("'" + magic + "'"),
                  std::string::npos)
            << e.what();
    }
}

/**
 * Save @p good to a file, let @p refuse throw SerializeError while
 * saving over it, and check the file still holds @p good's bytes and
 * loads.
 */
template <typename Refusal>
void
expectRefusedSaveKeepsFile(const std::string &name, Refusal refuse)
{
    const std::string path = ::testing::TempDir() + "/" + name;
    const ModelBundle good = makeBundle(23);
    good.save(path);
    const std::string before = fileBytes(path);
    ASSERT_FALSE(before.empty());

    EXPECT_THROW(refuse(path), SerializeError);

    EXPECT_EQ(fileBytes(path), before);
    const Vector x{0.5, 1.5, -2.0};
    EXPECT_EQ(ModelBundle::load(path).predict(x), good.predict(x));
    std::remove(path.c_str());
}

} // namespace

TEST(ServeBundleTest, ExposesSchemaAndTag)
{
    const ModelBundle bundle = makeBundle();
    EXPECT_TRUE(bundle.fitted());
    EXPECT_EQ(bundle.inputDim(), 3u);
    EXPECT_EQ(bundle.outputDim(), 2u);
    EXPECT_EQ(bundle.inputNames(),
              (std::vector<std::string>{"a", "b", "c"}));
    EXPECT_EQ(bundle.outputNames(),
              (std::vector<std::string>{"u", "v"}));
    EXPECT_EQ(bundle.tag(), "test-tag");
}

TEST(ServeBundleTest, PredictComposesStandardizersAndNetwork)
{
    const ModelBundle bundle = makeBundle();
    const Vector x{0.7, -1.3, 5.5};
    const Vector expected = bundle.outputTransform().inverse(
        bundle.network().forward(bundle.inputTransform().transform(x)));
    const Vector got = bundle.predict(x);
    ASSERT_EQ(got.size(), expected.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], expected[j]) << "output " << j;
}

TEST(ServeBundleTest, PredictAllBitIdenticalToPerRow)
{
    const ModelBundle bundle = makeBundle();
    Rng rng(7);
    wcnn::numeric::Matrix xs(17, 3);
    for (std::size_t i = 0; i < xs.rows(); ++i)
        xs.setRow(i, {rng.uniform(-3, 3), rng.uniform(-3, 3),
                      rng.uniform(-3, 3)});
    const wcnn::numeric::Matrix ys = bundle.predictAll(xs);
    ASSERT_EQ(ys.rows(), xs.rows());
    for (std::size_t i = 0; i < xs.rows(); ++i) {
        const Vector yi = bundle.predict(xs.row(i));
        for (std::size_t j = 0; j < yi.size(); ++j)
            EXPECT_EQ(ys(i, j), yi[j]) << "row " << i;
    }
}

TEST(ServeBundleTest, SaveLoadRoundTripsBitExact)
{
    const ModelBundle bundle = makeBundle(3);
    std::stringstream ss;
    bundle.save(ss);
    const ModelBundle loaded = ModelBundle::load(ss);

    EXPECT_EQ(loaded.inputNames(), bundle.inputNames());
    EXPECT_EQ(loaded.outputNames(), bundle.outputNames());
    EXPECT_EQ(loaded.tag(), bundle.tag());

    const Vector x{2.25, -0.5, 1.0};
    const Vector a = bundle.predict(x);
    const Vector b = loaded.predict(x);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j)
        EXPECT_EQ(a[j], b[j]) << "output " << j;
}

TEST(ServeBundleTest, FromModelMatchesNnModelPredict)
{
    // A real (tiny) training run: the bundle must answer exactly like
    // the NnModel it was cut from.
    const NnModel mdl = fittedModel(11);
    const ModelBundle bundle =
        ModelBundle::fromModel(mdl, {"a", "b"}, {"y"}, "cut");
    EXPECT_EQ(bundle.inputNames(), (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(bundle.outputNames(), (std::vector<std::string>{"y"}));

    const Vector x{1.5, 2.5};
    const Vector want = mdl.predict(x);
    const Vector got = bundle.predict(x);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t j = 0; j < got.size(); ++j)
        EXPECT_EQ(got[j], want[j]);
}

TEST(ServeBundleTest, MissingFileThrowsTyped)
{
    EXPECT_THROW((void)ModelBundle::load("/nonexistent/m.bundle"),
                 SerializeError);
}

TEST(ServeBundleTest, LegacyNnModelArtifactIsRefused)
{
    // The retired NnModel format: moments + weights, no schema.
    std::stringstream legacy;
    legacy << "wcnn-nn-model 1\n"
           << "x_moments 3 1 2 3 0.5 1.5 2\n"
           << "y_moments 2 0.1 -0.2 2 3\n";
    Serializer::write(makeNet(13), legacy);
    expectRefusedNaming(legacy.str(), "wcnn-nn-model");
}

TEST(ServeBundleTest, LegacyBareMlpIsRefused)
{
    // Weights only: loading it would predict on unstandardized scales.
    std::stringstream legacy;
    Serializer::write(makeNet(17), legacy);
    expectRefusedNaming(legacy.str(), "wcnn-mlp");
}

TEST(ServeBundleTest, MalformedArtifactThrowsTyped)
{
    std::stringstream garbage("not-an-artifact 42\njunk\n");
    EXPECT_THROW((void)ModelBundle::load(garbage), SerializeError);

    std::stringstream empty;
    EXPECT_THROW((void)ModelBundle::load(empty), SerializeError);
}

TEST(ServeBundleTest, TruncatedBundleThrowsTyped)
{
    std::stringstream ss;
    makeBundle().save(ss);
    const std::string whole = ss.str();
    std::stringstream half(whole.substr(0, whole.size() / 2));
    EXPECT_THROW((void)ModelBundle::load(half), SerializeError);
}

TEST(ServeBundleTest, WhitespaceSchemaNamesRefuseToSave)
{
    const ModelBundle bundle = ModelBundle::fromParts(
        makeNet(19), Standardizer::identity(3),
        Standardizer::identity(2), {"a", "bad name", "c"}, {"u", "v"},
        "t");
    std::stringstream ss;
    EXPECT_THROW(bundle.save(ss), SerializeError);
}

TEST(ServeBundleTest, RefusedNameKeepsThePreviousFile)
{
    expectRefusedSaveKeepsFile(
        "wcnn_refused_name.bundle", [](const std::string &path) {
            ModelBundle::fromParts(makeNet(19), Standardizer::identity(3),
                                   Standardizer::identity(2),
                                   {"a", "b c", "d"}, {"u", "v"}, "t")
                .save(path);
        });
}

TEST(ServeBundleTest, InjectedSaveFaultKeepsThePreviousFile)
{
    if (!fp::compiledIn())
        GTEST_SKIP() << "failpoints compiled out";
    // serve.bundle.save refuses before any byte is produced;
    // model.write refuses after the schema and moments were written.
    for (const char *site : {"serve.bundle.save", "model.write"}) {
        SCOPED_TRACE(site);
        expectRefusedSaveKeepsFile(
            "wcnn_refused_fault.bundle", [site](const std::string &path) {
                const DisarmOnExit disarm;
                fp::arm(site, fp::Trigger{.mode = fp::Trigger::Mode::Always});
                makeBundle(29).save(path);
            });
    }
}
