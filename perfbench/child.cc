#include "child.hh"

#include <cerrno>
#include <csignal>
#include <cstring>
#include <stdexcept>

#include <fcntl.h>
#include <poll.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

extern char **environ;

namespace perfbench {

namespace {

constexpr int kBannerTimeoutMs = 30000;
constexpr int kExitTimeoutMs = 60000;

void
closeFd(int &fd)
{
    if (fd >= 0)
        ::close(fd);
    fd = -1;
}

} // namespace

ServerChild::ServerChild(const std::string &wcnn,
                         const std::vector<std::string> &args)
{
    int in_pipe[2] = {-1, -1};
    int out_pipe[2] = {-1, -1};
    if (::pipe2(in_pipe, O_CLOEXEC) != 0 ||
        ::pipe2(out_pipe, O_CLOEXEC) != 0)
        throw std::runtime_error(std::string("pipe: ") +
                                 std::strerror(errno));

    std::vector<std::string> argv_s = {wcnn, "serve"};
    argv_s.insert(argv_s.end(), args.begin(), args.end());
    std::vector<char *> argv;
    for (std::string &a : argv_s)
        argv.push_back(a.data());
    argv.push_back(nullptr);

    posix_spawn_file_actions_t actions;
    posix_spawn_file_actions_init(&actions);
    posix_spawn_file_actions_adddup2(&actions, in_pipe[0], 0);
    posix_spawn_file_actions_adddup2(&actions, out_pipe[1], 1);
    pid_t child = -1;
    const int rc = ::posix_spawn(&child, wcnn.c_str(), &actions, nullptr,
                                 argv.data(), environ);
    posix_spawn_file_actions_destroy(&actions);
    ::close(in_pipe[0]);
    ::close(out_pipe[1]);
    stdinFd = in_pipe[1];
    stdoutFd = out_pipe[0];
    if (rc != 0) {
        closeFd(stdinFd);
        closeFd(stdoutFd);
        throw std::runtime_error("spawn " + wcnn + ": " +
                                 std::strerror(rc));
    }
    pid = child;

    std::string line;
    while (readLine(line, kBannerTimeoutMs)) {
        if (line.rfind("serving ", 0) != 0)
            continue;
        const std::size_t engine_at = line.find("(engine ");
        const std::size_t colon = line.rfind(':', engine_at);
        if (engine_at == std::string::npos || colon == std::string::npos)
            break;
        listenPort = static_cast<std::uint16_t>(
            std::stoul(line.substr(colon + 1)));
        const std::size_t name_at = engine_at + 8;
        engineName = line.substr(
            name_at, line.find_first_of(",)", name_at) - name_at);
        return;
    }
    stop();
    throw std::runtime_error("wcnn serve printed no banner");
}

ServerChild::~ServerChild()
{
    if (pid > 0) {
        ::kill(pid, SIGKILL);
        int status = 0;
        ::waitpid(pid, &status, 0);
    }
    closeFd(stdinFd);
    closeFd(stdoutFd);
}

bool
ServerChild::readLine(std::string &line, int timeout_ms)
{
    while (true) {
        const std::size_t nl = pending.find('\n');
        if (nl != std::string::npos) {
            line = pending.substr(0, nl);
            pending.erase(0, nl + 1);
            return true;
        }
        pollfd p{stdoutFd, POLLIN, 0};
        const int ready = ::poll(&p, 1, timeout_ms);
        if (ready < 0 && errno == EINTR)
            continue;
        if (ready <= 0)
            return false;
        char chunk[4096];
        const ssize_t n = ::read(stdoutFd, chunk, sizeof chunk);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            sawEof = true;
            if (pending.empty())
                return false;
            line.swap(pending);
            pending.clear();
            return true;
        }
        pending.append(chunk, static_cast<std::size_t>(n));
    }
}

ServerExit
ServerChild::stop()
{
    ServerExit out;
    if (pid <= 0)
        return out;
    closeFd(stdinFd);
    std::string line;
    while (readLine(line, kExitTimeoutMs))
        out.lines.push_back(line);
    if (!sawEof)
        ::kill(pid, SIGKILL); // hung: never leave a server behind
    int status = 0;
    rusage usage{};
    pid_t got = -1;
    do {
        got = ::wait4(pid, &status, 0, &usage);
    } while (got < 0 && errno == EINTR);
    pid = -1;
    closeFd(stdoutFd);
    out.status = status;
    out.peakRssMb = static_cast<double>(usage.ru_maxrss) / 1024.0;
    return out;
}

} // namespace perfbench
