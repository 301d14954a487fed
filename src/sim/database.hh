/**
 * @file
 * Backend database tier.
 *
 * Per the paper (section 4) the database server is *not* CPU bound; its
 * contribution to response time is connection queueing and data/lock
 * contention. We model a pool of connections served in FIFO order, with
 * each query's service time inflated linearly by the number of queries
 * concurrently in service *on the same lock domain* — the manufacturing
 * schema and the dealer schema are disjoint table sets, so they contend
 * for connections but not for row locks.
 */

#ifndef WCNN_SIM_DATABASE_HH
#define WCNN_SIM_DATABASE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/simulator.hh"

namespace wcnn {
namespace sim {

/** Lock domains (disjoint schema partitions). */
enum class DbDomain : std::size_t
{
    Manufacturing = 0, ///< WorkOrder tables
    Dealer = 1,        ///< dealer/order tables
};

/** Number of lock domains. */
constexpr std::size_t numDbDomains = 2;

/**
 * FIFO multi-connection database with per-domain linear lock
 * contention.
 */
class Database
{
  public:
    /**
     * @param sim         Owning simulator.
     * @param connections Connection-pool size (> 0).
     * @param lock_factor Per-concurrent-query service inflation; a query
     *                    entering service with k others in flight takes
     *                    demand * (1 + lock_factor * k).
     */
    Database(Simulator &sim, std::size_t connections,
             double lock_factor);

    /**
     * Issue a query. The callback fires when the query completes; the
     * caller's thread is assumed held for the duration (classic
     * synchronous JDBC behaviour).
     *
     * @param domain Lock domain the query touches.
     * @param demand Base service demand in seconds (> 0).
     * @param done   Completion callback.
     */
    void query(DbDomain domain, double demand, Callback done);

    /** Queries currently being served (all domains). */
    std::size_t inService() const { return busy; }

    /** Queries of one domain currently being served. */
    std::size_t
    inService(DbDomain domain) const
    {
        return busyPerDomain[static_cast<std::size_t>(domain)];
    }

    /** Queries waiting for a connection. */
    std::size_t waiting() const { return backlog.size(); }

    /** Total queries completed. */
    std::size_t completed() const { return nCompleted; }

  private:
    struct Pending
    {
        DbDomain domain;
        double demand;
        Callback done;
    };

    /** Move a queued query into service if a connection is free. */
    void beginService(DbDomain domain, double demand, Callback done);

    /** Service-completion handler for the query parked in `slot`. */
    void onComplete(DbDomain domain, std::uint32_t slot);

    Simulator &sim;
    std::size_t connections;
    double lockFactor;

    std::size_t busy = 0;
    std::array<std::size_t, numDbDomains> busyPerDomain{};
    std::size_t nCompleted = 0;
    std::deque<Pending> backlog;
    /**
     * Completion callbacks of in-service queries. A Callback cannot
     * capture another, so the completion event captures a slot index.
     */
    std::vector<Callback> parked;
    std::vector<std::uint32_t> freeParked;
};

} // namespace sim
} // namespace wcnn

#endif // WCNN_SIM_DATABASE_HH
