/**
 * @file
 * Fuzz-style corpus test: every checked-in malformed input under
 * tests/corpus/ must raise the typed wcnn::IoError family from its
 * parser — never a contract abort (that would misreport bad input as
 * an internal bug), never success, and under the sanitizer presets
 * never UB. The corpus is the regression home for any future parser
 * crash: add the offending file, it is covered forever.
 *
 * The corpus directory is baked in via WCNN_CORPUS_DIR (see
 * tests/CMakeLists.txt); file names are enumerated here so a deleted
 * corpus file fails loudly instead of silently shrinking coverage.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "core/contracts.hh"
#include "core/error.hh"
#include "data/csv.hh"
#include "nn/serialize.hh"
#include "scenario/error.hh"
#include "scenario/resolve.hh"
#include "serve/bundle.hh"
#include "serve/error.hh"
#include "serve/net/protocol.hh"

#ifndef WCNN_CORPUS_DIR
#error "build must define WCNN_CORPUS_DIR (see tests/CMakeLists.txt)"
#endif

namespace {

/** Read a corpus file whole; missing files fail the test. */
std::string
slurp(const std::string &name)
{
    const std::string path = std::string(WCNN_CORPUS_DIR) + "/" + name;
    std::ifstream is(path, std::ios::binary);
    if (!is)
        ADD_FAILURE() << "corpus file missing: " << path;
    std::ostringstream os;
    os << is.rdbuf();
    return os.str();
}

const char *const kCsvCorpus[] = {
    "csv_empty_file.csv",          "csv_header_missing_roles.csv",
    "csv_output_before_input.csv", "csv_ragged_row.csv",
    "csv_extra_cell.csv",          "csv_non_numeric_cell.csv",
    "csv_trailing_junk.csv",       "csv_nan_cell.csv",
    "csv_inf_cell.csv",            "csv_empty_cell.csv",
    "csv_no_output_column.csv",    "csv_unnamed_column.csv",
};

const char *const kModelCorpus[] = {
    "model_empty_file.txt",        "model_bad_magic.txt",
    "model_bad_version.txt",       "model_unknown_activation.txt",
    "model_truncated_after_header.txt",
    "model_implausible_depth.txt", "model_implausible_width.txt",
    "model_negative_dim.txt",
};

/**
 * Artifacts ModelBundle::load must refuse: the two retired formats (a
 * bare network with no moments, and moments without a schema) and
 * damaged bundles.
 */
const char *const kBundleCorpus[] = {
    "bundle_legacy_mlp.txt",        "bundle_legacy_nn_model.txt",
    "bundle_bad_version.txt",       "bundle_truncated_moments.txt",
    "bundle_nonpositive_scale.txt", "bundle_name_count_mismatch.txt",
};

/**
 * Hostile wire bytes for the serving decoder, categorized by the
 * typed outcome the connection handler owes them. tryDecode never
 * throws on wire content; the final status after consuming every
 * complete frame is the whole contract.
 */
struct WireCase
{
    const char *name;

    /** Complete frames decodable before the fault. */
    std::size_t leadingFrames;

    /** Status the decoder must settle on after those frames. */
    wcnn::serve::net::DecodeStatus finalStatus;
};

const WireCase kWireCorpus[] = {
    // Truncated streams: a valid prefix that never completes. At
    // EOF the handler treats NeedMore as a dead peer, not garbage.
    {"wire_truncated_length_prefix.bin", 0,
     wcnn::serve::net::DecodeStatus::NeedMore},
    {"wire_truncated_mid_body.bin", 0,
     wcnn::serve::net::DecodeStatus::NeedMore},
    // Lying lengths and mid-stream garbage: typed error, close.
    {"wire_request_zero_declared_length.bin", 0,
     wcnn::serve::net::DecodeStatus::Malformed},
    {"wire_garbage_between_frames.bin", 1,
     wcnn::serve::net::DecodeStatus::Malformed},
    {"wire_second_frame_bad_magic.bin", 1,
     wcnn::serve::net::DecodeStatus::Malformed},
};

/** JSON request lines that must raise a typed ProtocolError. */
const char *const kJsonWireCorpus[] = {
    "wire_json_embedded_nul.bin",
    "wire_json_unterminated_string.bin",
    "wire_json_bare_array.bin",
};

/**
 * Malformed scenario text, categorized by which stage owes the
 * diagnostic: "scenario.parse" for lexical/syntactic faults,
 * "scenario.resolve" for documents that parse but declare something
 * semantically invalid. Either way the contract layer stays silent —
 * the resolver pre-validates everything the simulator asserts on.
 */
struct ScenarioCase
{
    const char *name;
    const char *kind;
};

const ScenarioCase kScenarioCorpus[] = {
    // Lexical faults.
    {"scn_unterminated_string.wcnn", "scenario.parse"},
    {"scn_nonfinite_literal.wcnn", "scenario.parse"},
    {"scn_bad_token.wcnn", "scenario.parse"},
    // Syntactic faults.
    {"scn_truncated_block.wcnn", "scenario.parse"},
    {"scn_missing_semicolon.wcnn", "scenario.parse"},
    {"scn_deep_nesting.wcnn", "scenario.parse"},
    // Semantic faults.
    {"scn_string_where_number.wcnn", "scenario.resolve"},
    {"scn_empty.wcnn", "scenario.resolve"},
    {"scn_duplicate_pool.wcnn", "scenario.resolve"},
    {"scn_duplicate_class.wcnn", "scenario.resolve"},
    {"scn_cyclic_let.wcnn", "scenario.resolve"},
    {"scn_undefined_ref.wcnn", "scenario.resolve"},
    {"scn_unknown_section.wcnn", "scenario.resolve"},
    {"scn_wrong_arity.wcnn", "scenario.resolve"},
    {"scn_negative_rate.wcnn", "scenario.resolve"},
    {"scn_unknown_pool.wcnn", "scenario.resolve"},
    {"scn_mmpp_mismatch.wcnn", "scenario.resolve"},
};

} // namespace

TEST(FuzzCorpus, EveryMalformedCsvRaisesATypedIoError)
{
    for (const char *name : kCsvCorpus) {
        std::stringstream ss(slurp(name));
        try {
            (void)wcnn::data::readCsv(ss);
            ADD_FAILURE() << name << ": parser accepted malformed input";
        } catch (const wcnn::IoError &e) {
            EXPECT_EQ(e.kind(), "io.csv") << name;
            EXPECT_FALSE(std::string(e.what()).empty()) << name;
        } catch (const wcnn::ContractViolation &e) {
            ADD_FAILURE() << name << ": contract abort instead of "
                          << "IoError: " << e.what();
        }
    }
}

TEST(FuzzCorpus, EveryMalformedModelRaisesATypedIoError)
{
    for (const char *name : kModelCorpus) {
        std::stringstream ss(slurp(name));
        try {
            (void)wcnn::nn::Serializer::read(ss);
            ADD_FAILURE() << name << ": parser accepted malformed input";
        } catch (const wcnn::IoError &e) {
            EXPECT_EQ(e.kind(), "io.model") << name;
            EXPECT_FALSE(std::string(e.what()).empty()) << name;
        } catch (const wcnn::ContractViolation &e) {
            ADD_FAILURE() << name << ": contract abort instead of "
                          << "IoError: " << e.what();
        }
    }
}

TEST(FuzzCorpus, EveryMalformedBundleRaisesATypedSerializeError)
{
    for (const char *name : kBundleCorpus) {
        std::stringstream ss(slurp(name));
        try {
            (void)wcnn::serve::ModelBundle::load(ss);
            ADD_FAILURE() << name << ": loader accepted the artifact";
        } catch (const wcnn::nn::SerializeError &e) {
            EXPECT_FALSE(std::string(e.what()).empty()) << name;
        } catch (const wcnn::ContractViolation &e) {
            ADD_FAILURE() << name << ": contract abort instead of "
                          << "SerializeError: " << e.what();
        }
    }
}

TEST(FuzzCorpus, EveryHostileWireStreamSettlesOnItsTypedStatus)
{
    namespace net = wcnn::serve::net;
    for (const WireCase &wire : kWireCorpus) {
        const std::string raw = slurp(wire.name);
        const auto *data =
            reinterpret_cast<const std::uint8_t *>(raw.data());
        std::size_t off = 0;
        std::size_t frames = 0;
        net::DecodeStatus status = net::DecodeStatus::NeedMore;
        // Decode exactly the way a connection handler does: consume
        // complete frames until the stream is exhausted or faulted.
        while (off < raw.size()) {
            const net::DecodeResult r =
                net::tryDecode(data + off, raw.size() - off);
            status = r.status;
            if (r.status != net::DecodeStatus::Frame)
                break;
            ++frames;
            off += r.consumed;
        }
        EXPECT_EQ(frames, wire.leadingFrames) << wire.name;
        EXPECT_EQ(status, wire.finalStatus) << wire.name;
        if (wire.finalStatus == net::DecodeStatus::Malformed) {
            const net::DecodeResult r =
                net::tryDecode(data + off, raw.size() - off);
            EXPECT_FALSE(r.error.empty())
                << wire.name << ": malformed verdict needs a reason";
        }
    }
}

TEST(FuzzCorpus, EveryHostileJsonLineRaisesATypedProtocolError)
{
    namespace net = wcnn::serve::net;
    for (const char *name : kJsonWireCorpus) {
        const std::string line = slurp(name);
        try {
            (void)net::parseJsonLine(line);
            ADD_FAILURE() << name << ": parser accepted hostile JSON";
        } catch (const wcnn::serve::ProtocolError &e) {
            EXPECT_EQ(std::string(e.kind()), "serve.protocol") << name;
            EXPECT_FALSE(std::string(e.what()).empty()) << name;
        } catch (const wcnn::ContractViolation &e) {
            ADD_FAILURE() << name << ": contract abort instead of "
                          << "ProtocolError: " << e.what();
        }
    }
}

TEST(FuzzCorpus, EveryMalformedScenarioRaisesATypedScenarioError)
{
    for (const ScenarioCase &c : kScenarioCorpus) {
        const std::string source = slurp(c.name);
        try {
            (void)wcnn::scenario::resolveText(source);
            ADD_FAILURE() << c.name
                          << ": resolver accepted malformed input";
        } catch (const wcnn::scenario::ScenarioError &e) {
            EXPECT_EQ(std::string(e.kind()), c.kind) << c.name;
            // Every diagnostic carries a usable 1-based location,
            // embedded in what() for drivers that only print.
            EXPECT_GE(e.loc().line, 1u) << c.name;
            EXPECT_GE(e.loc().column, 1u) << c.name;
            EXPECT_NE(std::string(e.what()).find("line "),
                      std::string::npos)
                << c.name;
        } catch (const wcnn::ContractViolation &e) {
            ADD_FAILURE() << c.name << ": contract abort instead of "
                          << "ScenarioError: " << e.what();
        }
    }
}

TEST(FuzzCorpus, CorpusFailuresAreCatchableAsTheBaseError)
{
    // One taxonomy: anything the parsers throw narrows from
    // wcnn::Error, so a driver's single catch block handles both.
    std::stringstream csv(slurp("csv_ragged_row.csv"));
    EXPECT_THROW((void)wcnn::data::readCsv(csv), wcnn::Error);
    std::stringstream model(slurp("model_bad_magic.txt"));
    EXPECT_THROW((void)wcnn::nn::Serializer::read(model), wcnn::Error);
    EXPECT_THROW(
        (void)wcnn::scenario::resolveText(slurp("scn_bad_token.wcnn")),
        wcnn::Error);
}
