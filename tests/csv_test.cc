/**
 * @file
 * Unit tests for CSV dataset persistence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "core/failpoint.hh"
#include "data/csv.hh"

using wcnn::data::CsvError;
using wcnn::data::Dataset;

namespace {

Dataset
sampleDataset()
{
    Dataset ds({"rate", "threads"}, {"rt", "tput"});
    ds.add({560.0, 16.0}, {1.25, 480.5});
    ds.add({500.0, 12.0}, {0.875, 450.25});
    // Values exercising full double round-trip precision.
    ds.add({1.0 / 3.0, 2.0 / 7.0}, {1e-17, 123456789.123456789});
    return ds;
}

} // namespace

TEST(CsvTest, HeaderEncodesColumnRoles)
{
    std::ostringstream os;
    wcnn::data::writeCsv(sampleDataset(), os);
    const std::string text = os.str();
    EXPECT_EQ(text.substr(0, text.find('\n')),
              "x:rate,x:threads,y:rt,y:tput");
}

TEST(CsvTest, RoundTripIsExact)
{
    const Dataset original = sampleDataset();
    std::stringstream ss;
    wcnn::data::writeCsv(original, ss);
    const Dataset loaded = wcnn::data::readCsv(ss);

    ASSERT_EQ(loaded.size(), original.size());
    EXPECT_EQ(loaded.inputs(), original.inputs());
    EXPECT_EQ(loaded.outputs(), original.outputs());
    for (std::size_t i = 0; i < original.size(); ++i) {
        EXPECT_EQ(loaded[i].x, original[i].x);
        EXPECT_EQ(loaded[i].y, original[i].y);
    }
}

TEST(CsvTest, EmptyDatasetRoundTrips)
{
    Dataset ds({"a"}, {"b"});
    std::stringstream ss;
    wcnn::data::writeCsv(ds, ss);
    const Dataset loaded = wcnn::data::readCsv(ss);
    EXPECT_TRUE(loaded.empty());
    EXPECT_EQ(loaded.inputs(), ds.inputs());
}

TEST(CsvTest, MissingHeaderThrows)
{
    std::stringstream ss("");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, UnprefixedHeaderThrows)
{
    std::stringstream ss("rate,y:rt\n1,2\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, InputAfterOutputThrows)
{
    std::stringstream ss("y:rt,x:rate\n1,2\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, WrongFieldCountThrows)
{
    std::stringstream ss("x:a,y:b\n1,2\n1\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, BadNumberThrows)
{
    std::stringstream ss("x:a,y:b\n1,potato\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, TrailingJunkInNumberThrows)
{
    std::stringstream ss("x:a,y:b\n1,2zzz\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, BlankLinesAreSkipped)
{
    std::stringstream ss("x:a,y:b\n1,2\n\n3,4\n");
    const Dataset ds = wcnn::data::readCsv(ss);
    EXPECT_EQ(ds.size(), 2u);
}

TEST(CsvTest, FileSaveAndLoad)
{
    const std::string path =
        ::testing::TempDir() + "/wcnn_csv_test.csv";
    const Dataset original = sampleDataset();
    wcnn::data::saveCsv(original, path);
    const Dataset loaded = wcnn::data::loadCsv(path);
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i)
        EXPECT_EQ(loaded[i].x, original[i].x);
    std::remove(path.c_str());
}

TEST(CsvTest, RefusedSaveKeepsThePreviousFile)
{
    namespace fp = wcnn::core::failpoint;
    if (!fp::compiledIn())
        GTEST_SKIP() << "failpoints compiled out";
    const std::string path =
        ::testing::TempDir() + "/wcnn_csv_refused.csv";
    wcnn::data::saveCsv(sampleDataset(), path);
    const auto bytes = [&path] {
        std::ifstream is(path, std::ios::binary);
        std::ostringstream os;
        os << is.rdbuf();
        return os.str();
    };
    const std::string before = bytes();

    Dataset other({"a"}, {"b"});
    other.add({1.0}, {2.0});
    fp::arm("csv.write", fp::Trigger{.mode = fp::Trigger::Mode::Always});
    EXPECT_THROW(wcnn::data::saveCsv(other, path), CsvError);
    fp::reset();

    EXPECT_EQ(bytes(), before);
    EXPECT_EQ(wcnn::data::loadCsv(path).size(), sampleDataset().size());
    std::remove(path.c_str());
}

TEST(CsvTest, MissingFileThrows)
{
    EXPECT_THROW(wcnn::data::loadCsv("/nonexistent/path/file.csv"),
                 CsvError);
}

TEST(CsvTest, CrlfLineEndingsParseLikeLf)
{
    // Files written on Windows (or piped through tools that emit
    // CRLF) must parse identically, trailing '\r' stripped from the
    // header and every data row.
    std::stringstream ss("x:a,y:b\r\n1,2\r\n3,4\r\n");
    const Dataset ds = wcnn::data::readCsv(ss);
    ASSERT_EQ(ds.size(), 2u);
    EXPECT_EQ(ds.outputs(), (std::vector<std::string>{"b"}));
    EXPECT_EQ(ds[1].x, (wcnn::numeric::Vector{3.0}));
    EXPECT_EQ(ds[1].y, (wcnn::numeric::Vector{4.0}));
}

TEST(CsvTest, Utf8BomOnHeaderIsStripped)
{
    std::stringstream ss("\xef\xbb\xbfx:a,y:b\n1,2\n");
    const Dataset ds = wcnn::data::readCsv(ss);
    ASSERT_EQ(ds.size(), 1u);
    EXPECT_EQ(ds.inputs(), (std::vector<std::string>{"a"}));
}

TEST(CsvTest, BomAndCrlfTogether)
{
    std::stringstream ss("\xef\xbb\xbfx:a,y:b\r\n1,2\r\n");
    const Dataset ds = wcnn::data::readCsv(ss);
    ASSERT_EQ(ds.size(), 1u);
    EXPECT_EQ(ds[0].y, (wcnn::numeric::Vector{2.0}));
}

TEST(CsvTest, RaggedRowErrorNamesTheRowAndCounts)
{
    std::stringstream ss("x:a,x:b,y:c\n1,2,3\n4,5\n");
    try {
        (void)wcnn::data::readCsv(ss);
        FAIL() << "ragged row accepted";
    } catch (const CsvError &e) {
        EXPECT_EQ(e.kind(), "io.csv");
        const std::string what = e.what();
        EXPECT_NE(what.find("row 3"), std::string::npos);
        EXPECT_NE(what.find("2 fields"), std::string::npos);
        EXPECT_NE(what.find("expected 3"), std::string::npos);
    }
}

TEST(CsvTest, NonNumericCellErrorNamesTheCell)
{
    std::stringstream ss("x:a,y:b\n1,2\n1,twelve\n");
    try {
        (void)wcnn::data::readCsv(ss);
        FAIL() << "non-numeric cell accepted";
    } catch (const CsvError &e) {
        EXPECT_NE(std::string(e.what()).find("'twelve'"),
                  std::string::npos);
    }
}

TEST(CsvTest, HeaderWithoutBothSidesThrows)
{
    std::stringstream only_x("x:a\n1\n");
    EXPECT_THROW(wcnn::data::readCsv(only_x), CsvError);
    std::stringstream only_y("y:a\n1\n");
    EXPECT_THROW(wcnn::data::readCsv(only_y), CsvError);
}

TEST(CsvTest, EmptyColumnNameThrows)
{
    std::stringstream ss("x:,y:b\n1,2\n");
    EXPECT_THROW(wcnn::data::readCsv(ss), CsvError);
}

TEST(CsvTest, CsvErrorIsAnIoError)
{
    // The taxonomy: CsvError -> IoError -> wcnn::Error, so callers can
    // handle persistence failures at any granularity.
    std::stringstream ss("");
    try {
        (void)wcnn::data::readCsv(ss);
        FAIL() << "empty stream accepted";
    } catch (const wcnn::IoError &e) {
        EXPECT_EQ(e.kind(), "io.csv");
    }
}
