/**
 * @file
 * The two pipeline passes the benchmark times: the paper's study
 * (model::runStudy: design -> simulate -> tune -> CV -> final fit,
 * then the section-5 surfaces and recommendation) and the same
 * analysis on a fixed, checked-in dataset.
 *
 * Stage times come from the spans the wcnn layers emit themselves
 * (core::telemetry), recorded only in traced passes, so they are not
 * built from the pass time they are checked against.
 */

#ifndef PERFBENCH_PIPELINE_HH
#define PERFBENCH_PIPELINE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "data/dataset.hh"
#include "model/study.hh"
#include "sim/sample_space.hh"

namespace perfbench {

/** Stage names, in pass order. */
extern const char *const kStageNames[];
extern const std::size_t kStageCount;

/** Stage indices into PassResult::stageSeconds. */
enum Stage : std::size_t
{
    Collect,
    Tune,
    Cv,
    Fit,
    Sweep,
    Recommend,
};

/** Outcome of one pass. */
struct PassResult
{
    bool ok = false;
    std::string error;
    /** Wall seconds of the whole pass. */
    double seconds = 0.0;
    /** Seconds per stage, indexed by Stage; zero unless traced. */
    std::vector<double> stageSeconds;

    std::size_t simRuns = 0;
    std::size_t simRetried = 0;
    std::size_t simDropped = 0;
    std::size_t tuneCandidates = 0;
    std::size_t cvFolds = 0;
    std::size_t sweepCells = 0;
    std::size_t fitEpochs = 0;
    std::size_t fitRows = 0;

    /** data::csvDigest of the dataset the analysis ran on. */
    std::string datasetDigest;
    /** Per-trial, per-indicator CV validation errors. */
    std::vector<double> cvErrors;
    /** Digest of the final model's sweep-grid predictions and picks. */
    std::string predictionDigest;
    /** Surface classes of the swept indicators, comma separated. */
    std::string surfaceClasses;

    /** The collected (study) or loaded (fixed) dataset. */
    wcnn::data::Dataset dataset;
};

/** What a pass needs, built during set-up. */
struct PassPlan
{
    /** Study options (scenario, design sizes, seeds, threads). */
    wcnn::model::StudyOptions study;
    /** Fixed dataset; empty for the study workload. */
    wcnn::data::Dataset fixed;
    /** True for the study workload (runStudy), else the fixed dataset. */
    bool simulate = true;
};

/**
 * Run one pass; never throws (a failure sets ok = false). With
 * `traced`, wcnn's telemetry records the pass and the stage seconds
 * are read from the layers' own spans.
 */
PassResult runPass(const PassPlan &plan, bool traced);

/** Single-threaded replay of a study pass's collection. */
struct ReplayResult
{
    double seconds = 0.0;
    std::uint64_t events = 0;
    std::size_t runs = 0;
    /** Rows whose replayed replica mean differs in any bit. */
    std::size_t mismatchedRows = 0;
};

/**
 * Re-run every (config, seed_base + i*replicates + r) of the study
 * design through sim::simulateThreeTier with diagnostics, one thread,
 * and compare each replica mean with the row runStudy collected, bit
 * for bit.
 */
ReplayResult replayCollection(const wcnn::model::StudyOptions &opts,
                              const wcnn::data::Dataset &collected);

/** FNV-1a 64 over raw bytes, as 16 hex digits. */
std::string digestBytes(const void *data, std::size_t size,
                        std::uint64_t seed = 1469598103934665603ull);

} // namespace perfbench

#endif // PERFBENCH_PIPELINE_HH
