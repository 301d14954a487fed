/**
 * @file
 * A `wcnn serve` child process: spawned with piped stdin/stdout,
 * stopped by closing its stdin (the server's documented shutdown
 * signal), always reaped.
 */

#ifndef PERFBENCH_CHILD_HH
#define PERFBENCH_CHILD_HH

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** What a stopped server printed and used. */
struct ServerExit
{
    /** Exit status from waitpid (0 on a clean shutdown). */
    int status = -1;
    /** Peak resident set of the child, MiB. */
    double peakRssMb = 0.0;
    /** Lines printed after the banner (the exit summary). */
    std::vector<std::string> lines;
};

/** One running `wcnn serve` process. */
class ServerChild
{
  public:
    /**
     * Spawn `wcnn serve <args>` and wait for its banner.
     *
     * @param wcnn Path of the wcnn executable.
     * @param args Arguments after `serve`.
     * @throws std::runtime_error when the child does not start.
     */
    ServerChild(const std::string &wcnn,
                const std::vector<std::string> &args);
    ServerChild(const ServerChild &) = delete;
    ServerChild &operator=(const ServerChild &) = delete;
    ServerChild(ServerChild &&) = delete;
    ServerChild &operator=(ServerChild &&) = delete;

    /** Kills and reaps the child if stop() was not called. */
    ~ServerChild();

    /** Port the server listens on (from the banner). */
    std::uint16_t port() const { return listenPort; }

    /** Engine name from the banner (`engine <name>`). */
    const std::string &engine() const { return engineName; }

    /** Close stdin, collect the exit summary, reap the child. */
    ServerExit stop();

  private:
    bool readLine(std::string &line, int timeout_ms);

    int pid = -1;
    int stdinFd = -1;
    int stdoutFd = -1;
    std::string pending;
    bool sawEof = false;
    std::uint16_t listenPort = 0;
    std::string engineName;
};

} // namespace perfbench

#endif // PERFBENCH_CHILD_HH
