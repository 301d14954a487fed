#include "database.hh"

#include "core/contracts.hh"


namespace wcnn {
namespace sim {

Database::Database(Simulator &sim, std::size_t connections,
                   double lock_factor)
    : sim(sim), connections(connections), lockFactor(lock_factor)
{
    WCNN_REQUIRE(connections > 0, "database needs at least one connection");
    WCNN_REQUIRE(lock_factor >= 0.0,
                 "lock factor must be non-negative, got ", lock_factor);
}

void
Database::query(DbDomain domain, double demand, Callback done)
{
    WCNN_REQUIRE(demand > 0.0, "database demand must be positive, got ",
                 demand);
    if (busy < connections) {
        beginService(domain, demand, std::move(done));
    } else {
        backlog.push_back(Pending{domain, demand, std::move(done)});
    }
}

void
Database::beginService(DbDomain domain, double demand, Callback done)
{
    // Lock contention against same-domain queries already in flight.
    const std::size_t domain_busy =
        busyPerDomain[static_cast<std::size_t>(domain)];
    const double service =
        demand * (1.0 + lockFactor * static_cast<double>(domain_busy));
    ++busy;
    ++busyPerDomain[static_cast<std::size_t>(domain)];
    std::uint32_t slot;
    if (freeParked.empty()) {
        slot = static_cast<std::uint32_t>(parked.size());
        parked.push_back(std::move(done));
    } else {
        slot = freeParked.back();
        freeParked.pop_back();
        parked[slot] = std::move(done);
    }
    sim.schedule(service, [this, domain, slot] { onComplete(domain, slot); });
}

void
Database::onComplete(DbDomain domain, std::uint32_t slot)
{
    Callback done = std::move(parked[slot]);
    freeParked.push_back(slot);
    WCNN_ENSURE(busy > 0, "completion with no busy connections");
    WCNN_ENSURE(busyPerDomain[static_cast<std::size_t>(domain)] > 0,
                "completion for an idle domain");
    --busy;
    --busyPerDomain[static_cast<std::size_t>(domain)];
    ++nCompleted;
    if (!backlog.empty() && busy < connections) {
        Pending next = std::move(backlog.front());
        backlog.pop_front();
        beginService(next.domain, next.demand, std::move(next.done));
    }
    done();
}

} // namespace sim
} // namespace wcnn
