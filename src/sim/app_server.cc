#include "app_server.hh"

#include "core/contracts.hh"


namespace wcnn {
namespace sim {

AppServer::AppServer(Simulator &sim, PsCpu &cpu, Database &db,
                     ThreadPool &mfg_pool, ThreadPool &web_pool,
                     ThreadPool &default_pool,
                     const WorkloadParams &params, Collector &collector,
                     numeric::Rng rng)
    : sim(sim), cpu(cpu), db(db), mfgPool(mfg_pool), webPool(web_pool),
      defaultPool(default_pool), params(params), collector(collector),
      rng(rng)
{
}

double
AppServer::sampleDemand(double mean)
{
    if (mean <= 0.0)
        return 0.0;
    switch (params.serviceDist) {
    case ServiceDist::Lognormal:
        return rng.lognormal(mean, params.serviceCov);
    case ServiceDist::Exponential:
        return rng.exponential(mean);
    case ServiceDist::Deterministic:
        return mean;
    }
    WCNN_UNREACHABLE("invalid ServiceDist");
}

AppServer::Flow *
AppServer::acquireFlow()
{
    if (freeFlows.empty())
        return &flowStore.emplace_back();
    Flow *flow = freeFlows.back();
    freeFlows.pop_back();
    return flow;
}

void
AppServer::releaseFlow(Flow *flow)
{
    *flow = Flow{};
    freeFlows.push_back(flow);
}

void
AppServer::handle(const Request &req)
{
    const TxnProfile &profile = params.profile(req.cls);

    Flow *flow = acquireFlow();
    flow->req = req;
    flow->profile = &profile;
    // Draw every demand up front so the per-transaction RNG consumption
    // is fixed regardless of queueing outcomes (replay determinism).
    flow->cpuPre = sampleDemand(profile.cpuPre);
    flow->cpuPost = sampleDemand(profile.cpuPost);
    flow->dbDemand = sampleDemand(profile.dbDemand);
    flow->auxCpu = sampleDemand(profile.auxCpu);
    flow->auxDb = sampleDemand(profile.auxDb);
    flow->pendingBranches = profile.hasAuxHop ? 2 : 1;

    ThreadPool &pool =
        req.cls == TxnClass::Manufacturing ? mfgPool : webPool;
    const bool accepted = pool.submit([this, flow](Callback done) {
        flow->threadDone = std::move(done);
        startFlow(flow);
    });
    if (!accepted) {
        releaseFlow(flow);
        ++nPrimaryRejects;
        collector.recordDrop(req.cls, sim.now());
        if (onTerminal)
            onTerminal(req, TxnOutcome::Rejected);
    }
}

void
AppServer::startFlow(Flow *flow)
{
    // Allocation happens while the request is processed, whether or not
    // the transaction ultimately completes; GC pressure follows the
    // *processed* request rate.
    maybeCollectGarbage();
    const DbDomain domain = flow->req.cls == TxnClass::Manufacturing
                                ? DbDomain::Manufacturing
                                : DbDomain::Dealer;
    cpu.execute(flow->cpuPre, [this, flow, domain] {
        db.query(domain, flow->dbDemand, [this, flow] {
            if (flow->profile->hasAuxHop)
                dispatchAux(flow);
            finishPrimary(flow);
        });
    });
}

void
AppServer::dispatchAux(Flow *flow)
{
    const bool accepted =
        defaultPool.submit([this, flow](Callback aux_done) {
            flow->auxDone = std::move(aux_done);
            cpu.execute(flow->auxCpu, [this, flow] {
                db.query(DbDomain::Dealer, flow->auxDb, [this, flow] {
                    flow->auxDone();
                    branchDone(flow);
                });
            });
        });
    if (!accepted) {
        // Internal dispatch failed: the transaction will never be
        // complete. The web branch still runs to release its thread
        // and reaches the terminal event in branchDone().
        ++nAuxRejects;
        flow->failed = true;
        WCNN_ENSURE(flow->pendingBranches > 1,
                    "aux reject on a flow without a pending web branch");
        --flow->pendingBranches;
        collector.recordDrop(flow->req.cls, sim.now());
    }
}

void
AppServer::finishPrimary(Flow *flow)
{
    cpu.execute(flow->cpuPost, [this, flow] {
        flow->threadDone();
        branchDone(flow);
    });
}

void
AppServer::branchDone(Flow *flow)
{
    WCNN_ENSURE(flow->pendingBranches > 0,
                "branchDone on a flow with no pending branches");
    if (--flow->pendingBranches != 0)
        return;
    if (!flow->failed) {
        collector.recordCompletion(flow->req.cls, flow->req.arrivalTime,
                                   sim.now());
    }
    if (onTerminal) {
        onTerminal(flow->req, flow->failed ? TxnOutcome::Failed
                                           : TxnOutcome::Completed);
    }
    releaseFlow(flow);
}

void
AppServer::maybeCollectGarbage()
{
    if (params.gcTxnInterval == 0)
        return;
    if (++txnsSinceGc < params.gcTxnInterval)
        return;
    txnsSinceGc = 0;
    cpu.pause(rng.lognormal(params.gcPauseMean, 0.3));
}

} // namespace sim
} // namespace wcnn
