#include "pipeline.hh"

#include <cmath>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <utility>

#include "core/telemetry.hh"
#include "data/csv.hh"
#include "model/classify.hh"
#include "model/cross_validation.hh"
#include "model/grid_search.hh"
#include "model/nn_model.hh"
#include "model/recommender.hh"
#include "model/surface.hh"
#include "numeric/rng.hh"
#include "sim/three_tier.hh"
#include "spans.hh"

namespace perfbench {

namespace model = wcnn::model;
namespace sim = wcnn::sim;
namespace data = wcnn::data;
namespace telemetry = wcnn::core::telemetry;

const char *const kStageNames[] = {
    "sim.collect", "model.tune",  "model.cv",
    "model.fit",   "model.sweep", "model.recommend",
};
const std::size_t kStageCount = sizeof(kStageNames) / sizeof(kStageNames[0]);

namespace {

/** A stage as a library span: its name and nesting depth. */
struct StageSpan
{
    Stage stage;
    const char *name;
    int depth;
};

// runStudy wraps its stages in "study"; sweepSurface and the direct
// calls of the fixed pass are top level. "train" at depth 0 is only
// the fixed pass's final fit: the fits inside grid search and CV run
// under their own spans.
const StageSpan kStudySpans[] = {
    {Collect, "collect.simulated", 1},
    {Tune, "study.tune", 1},
    {Cv, "study.cv", 1},
    {Fit, "study.final_fit", 1},
    {Sweep, "sweep", 0},
};
const StageSpan kFixedSpans[] = {
    {Tune, "grid", 0},
    {Cv, "cv", 0},
    {Fit, "train", 0},
    {Sweep, "sweep", 0},
};

/** Seconds of the stage spans in `events`, summed over threads. */
template <std::size_t N>
void
addStageSeconds(const std::vector<telemetry::Event> &events,
                const StageSpan (&stages)[N], std::vector<double> &out)
{
    // Open span per (thread, depth); begin and end balance per thread.
    std::map<std::pair<int, int>, std::int64_t> open;
    for (const telemetry::Event &e : events) {
        const auto key = std::make_pair(e.tid, e.depth);
        if (e.phase == telemetry::EventPhase::SpanBegin) {
            open[key] = e.tsNs;
            continue;
        }
        if (e.phase != telemetry::EventPhase::SpanEnd)
            continue;
        const auto it = open.find(key);
        if (it == open.end())
            continue;
        for (const StageSpan &s : stages) {
            if (s.depth == e.depth && std::strcmp(s.name, e.name) == 0)
                out[s.stage] += static_cast<double>(e.tsNs - it->second) * 1e-9;
        }
        open.erase(it);
    }
}

/**
 * The fixed pass's tune -> CV -> final fit. runStudy takes no dataset,
 * so this calls the same three stages with the options runStudy
 * derives for a strict study (tuning seed + 1, folds seed + 2).
 */
model::NnModel
fitFixed(const model::StudyOptions &opts, const data::Dataset &ds,
         PassResult &out)
{
    model::NnModelOptions tuned = opts.nn;
    model::GridSearchOptions tuning = opts.tuning;
    tuning.seed = opts.seed + 1;
    tuning.threads = opts.threads;
    tuning.onFailure = model::OnFailure::Strict;
    const model::GridSearchResult grid =
        model::gridSearch(opts.nn, ds, tuning);
    tuned.hiddenUnits = {grid.best().hiddenUnits};
    tuned.train.targetLoss = grid.best().targetLoss;
    out.tuneCandidates = grid.entries.size();

    model::CvOptions cv_opts = opts.cv;
    cv_opts.seed = opts.seed + 2;
    cv_opts.threads = opts.threads;
    cv_opts.onFailure = model::OnFailure::Strict;
    const model::CvResult cv = model::crossValidate(
        [&tuned] { return std::make_unique<model::NnModel>(tuned); }, ds,
        cv_opts);
    for (const model::CvTrial &t : cv.trials) {
        out.cvErrors.insert(out.cvErrors.end(),
                            t.validation.harmonicError.begin(),
                            t.validation.harmonicError.end());
    }
    out.cvFolds = cv.trials.size();

    model::NnModel final_model(tuned);
    final_model.fit(ds);
    return final_model;
}

/** Section 5: every indicator's surface over the (inj, x, mfg, y)
 *  slice, then the top recommendations. */
void
analyze(const model::StudyOptions &opts, const model::NnModel &final_model,
        const data::Dataset &ds, PassResult &out)
{
    std::vector<double> digest_input;
    for (std::size_t k = 0; k < ds.outputDim(); ++k) {
        model::SurfaceRequest req;
        req.axisA = 1;
        req.axisB = 3;
        req.indicator = k;
        req.fixed = {opts.anchorInjection, 0.0, opts.anchorMfg, 0.0};
        req.loA = opts.space.defaultQueue.lo;
        req.hiA = opts.space.defaultQueue.hi;
        req.loB = opts.space.webQueue.lo;
        req.hiB = opts.space.webQueue.hi;
        req.pointsA = 11;
        req.pointsB = 7;
        const model::SurfaceGrid grid =
            model::sweepSurface(final_model, req, ds);
        const model::SurfaceAnalysis cls = model::classifySurface(grid);
        out.sweepCells += grid.z.size();
        digest_input.insert(digest_input.end(), grid.z.data().begin(),
                            grid.z.data().end());
        if (!out.surfaceClasses.empty())
            out.surfaceClasses += ',';
        out.surfaceClasses += model::surfaceClassName(cls.cls);
    }

    // The one stage without a span of its own in the library.
    out.stageSeconds[Recommend] = timed(kStageNames[Recommend], [&] {
        const auto queue_axis = [](const sim::ParameterRange &r) {
            return model::SearchAxis{
                r.lo, r.hi, static_cast<std::size_t>(r.hi - r.lo + 1.0)};
        };
        const model::Recommender rec(
            final_model,
            {model::SearchAxis{opts.anchorInjection, opts.anchorInjection,
                               1},
             queue_axis(opts.space.defaultQueue),
             queue_axis(opts.space.mfgQueue),
             queue_axis(opts.space.webQueue)});
        const auto top =
            rec.recommend(model::ScoringFunction::forWorkload(ds), 5);
        for (const model::Recommendation &r : top) {
            digest_input.insert(digest_input.end(), r.config.begin(),
                                r.config.end());
            digest_input.push_back(r.score);
        }
    });
    out.predictionDigest = digestBytes(
        digest_input.data(), digest_input.size() * sizeof(double));
}

/**
 * The configurations runStudy collects: its design step (Latin
 * hypercube over the base configuration plus the slice anchors with
 * longer windows), repeated here because runStudy does not return its
 * configurations. The replay compares every row with the one runStudy
 * collected, so a difference between the two shows as a failure.
 */
std::vector<sim::ThreeTierConfig>
studyDesign(const model::StudyOptions &opts)
{
    wcnn::numeric::Rng rng(opts.seed);
    auto configs =
        sim::latinHypercubeDesign(opts.space, opts.designSamples, rng);
    for (sim::ThreeTierConfig &cfg : configs) {
        sim::ThreeTierConfig full = opts.baseConfig;
        full.injectionRate = cfg.injectionRate;
        full.defaultQueue = cfg.defaultQueue;
        full.mfgQueue = cfg.mfgQueue;
        full.webQueue = cfg.webQueue;
        cfg = full;
    }
    const std::size_t k = opts.sliceAnchorsPerAxis;
    const auto frac = [k](std::size_t t) {
        return k == 1 ? 0.5
                      : static_cast<double>(t) / static_cast<double>(k - 1);
    };
    for (std::size_t i = 0; i < k; ++i) {
        for (std::size_t j = 0; j < k; ++j) {
            sim::ThreeTierConfig cfg = opts.baseConfig;
            cfg.injectionRate = opts.anchorInjection;
            cfg.mfgQueue = opts.anchorMfg;
            cfg.defaultQueue = std::round(
                opts.space.defaultQueue.lo +
                frac(i) * (opts.space.defaultQueue.hi -
                           opts.space.defaultQueue.lo));
            cfg.webQueue = std::round(
                opts.space.webQueue.lo +
                frac(j) *
                    (opts.space.webQueue.hi - opts.space.webQueue.lo));
            cfg.warmup = opts.baseConfig.warmup +
                         opts.baseConfig.warmup / 3.0;
            cfg.measure = 2.0 * opts.baseConfig.measure;
            configs.push_back(cfg);
        }
    }
    return configs;
}

} // namespace

std::string
digestBytes(const void *bytes, std::size_t size, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    const auto *p = static_cast<const unsigned char *>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= p[i];
        hash *= 1099511628211ull;
    }
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(hash));
    return hex;
}

PassResult
runPass(const PassPlan &plan, bool traced)
{
    PassResult out;
    out.stageSeconds.assign(kStageCount, 0.0);
    const model::StudyOptions &opts = plan.study;
    if (traced) {
        telemetry::reset();
        telemetry::setEnabled(true);
    }
    Span pass("pipeline.pass");
    try {
        if (plan.simulate) {
            model::StudyResult study;
            timed("model.run_study",
                  [&] { study = model::runStudy(opts); });
            out.simRuns = study.collection.configs.size() * opts.replicates;
            out.simRetried = study.collection.retries();
            out.simDropped = study.collection.dropped();
            out.tuneCandidates = study.tuning.entries.size();
            out.cvFolds = study.cv.trials.size();
            for (const model::CvTrial &t : study.cv.trials) {
                out.cvErrors.insert(out.cvErrors.end(),
                                    t.validation.harmonicError.begin(),
                                    t.validation.harmonicError.end());
            }
            out.datasetDigest = data::csvDigest(study.dataset);
            out.fitEpochs = study.finalModel.lastTraining().epochs;
            out.fitRows = study.dataset.size();
            timed("model.analysis", [&] {
                analyze(opts, study.finalModel, study.dataset, out);
            });
            out.dataset = std::move(study.dataset);
        } else {
            out.datasetDigest = data::csvDigest(plan.fixed);
            model::NnModel final_model;
            timed("model.fit_fixed",
                  [&] { final_model = fitFixed(opts, plan.fixed, out); });
            out.fitEpochs = final_model.lastTraining().epochs;
            out.fitRows = plan.fixed.size();
            timed("model.analysis",
                  [&] { analyze(opts, final_model, plan.fixed, out); });
        }
        out.ok = true;
    } catch (const std::exception &e) {
        out.error = e.what();
    }
    out.seconds = pass.close();
    if (traced) {
        telemetry::setEnabled(false);
        const std::vector<telemetry::Event> events =
            telemetry::collectEvents();
        if (plan.simulate)
            addStageSeconds(events, kStudySpans, out.stageSeconds);
        else
            addStageSeconds(events, kFixedSpans, out.stageSeconds);
        telemetry::reset();
    }
    return out;
}

ReplayResult
replayCollection(const model::StudyOptions &opts,
                 const data::Dataset &collected)
{
    ReplayResult out;
    const std::vector<sim::ThreeTierConfig> configs = studyDesign(opts);
    out.seconds = timed("sim.replay", [&] {
        for (std::size_t i = 0; i < configs.size(); ++i) {
            sim::PerfSample mean;
            for (std::size_t r = 0; r < opts.replicates; ++r) {
                sim::ThreeTierConfig replica = configs[i];
                replica.seed = opts.seed + i * opts.replicates + r;
                sim::RunDiagnostics diag;
                const sim::PerfSample s =
                    sim::simulateThreeTier(replica, opts.params, &diag);
                out.events += diag.eventsProcessed;
                ++out.runs;
                mean.manufacturingRt += s.manufacturingRt;
                mean.dealerPurchaseRt += s.dealerPurchaseRt;
                mean.dealerManageRt += s.dealerManageRt;
                mean.dealerBrowseRt += s.dealerBrowseRt;
                mean.throughput += s.throughput;
            }
            // Same accumulation and division order as collectSimulated.
            const double n = static_cast<double>(opts.replicates);
            mean.manufacturingRt /= n;
            mean.dealerPurchaseRt /= n;
            mean.dealerManageRt /= n;
            mean.dealerBrowseRt /= n;
            mean.throughput /= n;
            const std::vector<double> y = mean.toVector();
            if (i >= collected.size() ||
                std::memcmp(y.data(), collected[i].y.data(),
                            y.size() * sizeof(double)) != 0)
                ++out.mismatchedRows;
        }
    });
    if (collected.size() > configs.size())
        out.mismatchedRows += collected.size() - configs.size();
    return out;
}

} // namespace perfbench
