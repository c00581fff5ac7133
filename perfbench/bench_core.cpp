#include "bench_core.h"

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fcntl.h>
#include <fstream>
#include <poll.h>
#include <stdexcept>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <thread>
#include <unistd.h>

#include "ckpt/store.h"
#include "common/log.h"
#include "serve/client.h"

extern char **environ;

namespace perfbench {

using smtflex::serve::Json;

// ---- order statistics ----

double
median(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("median of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3>
quartiles(std::vector<double> values)
{
    if (values.size() < 2)
        throw std::invalid_argument("quartiles need two values");
    std::sort(values.begin(), values.end());
    const long ld = static_cast<long>(values.size());
    const long m = ld + 1;
    constexpr long n = 4;
    std::array<double, 3> out{};
    for (long i = 1; i < n; ++i) {
        long j = i * m / n;
        j = std::clamp(j, 1L, ld - 1);
        const long delta = i * m - j * n;
        out[static_cast<std::size_t>(i - 1)] =
            (values[static_cast<std::size_t>(j - 1)] *
                 static_cast<double>(n - delta) +
             values[static_cast<std::size_t>(j)] *
                 static_cast<double>(delta)) /
            static_cast<double>(n);
    }
    return out;
}

Tail
tailOf(std::vector<double> values)
{
    if (values.empty())
        throw std::invalid_argument("tail of no values");
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    Tail tail;
    tail.samples = n;
    if (n < 11) {
        tail.value = values.back();
        tail.percentile = 100.0;
        tail.beyond = 0;
        return tail;
    }
    const std::size_t k = n - 11; // ten samples sit above index k
    tail.value = values[k];
    tail.percentile =
        100.0 * static_cast<double>(k + 1) / static_cast<double>(n);
    tail.beyond = n - 1 - k;
    return tail;
}

// ---- tracing ----

double
nowSeconds()
{
    static const Clock::time_point epoch = Clock::now();
    return std::chrono::duration<double>(Clock::now() - epoch).count();
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::map<std::uint64_t, std::size_t> index;
    for (std::size_t i = 0; i < spans.size(); ++i)
        index[spans[i].id] = i;
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const Span &span : spans) {
        const auto parent = index.find(span.parent);
        if (span.parent == 0 || parent == index.end())
            continue;
        const Span &p = spans[parent->second];
        const double lo = std::max(span.start, p.start);
        const double hi = std::min(span.end, p.end);
        if (hi > lo)
            children[parent->second].emplace_back(lo, hi);
    }
    std::vector<double> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto &kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double run_lo = 0.0, run_hi = 0.0;
        bool open = false;
        for (const auto &[lo, hi] : kids) {
            if (open && lo <= run_hi) {
                run_hi = std::max(run_hi, hi);
                continue;
            }
            if (open)
                covered += run_hi - run_lo;
            run_lo = lo;
            run_hi = hi;
            open = true;
        }
        if (open)
            covered += run_hi - run_lo;
        self[i] = (spans[i].end - spans[i].start) - covered;
    }
    return self;
}

namespace {
thread_local std::vector<std::uint64_t> openSpans;
} // namespace

Tracer &
Tracer::instance()
{
    static Tracer tracer;
    return tracer;
}

std::uint64_t
Tracer::begin(const std::string &name)
{
    if (!enabled_)
        return 0;
    const double start = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    Span span;
    span.id = nextId_++;
    span.name = name;
    span.start = start;
    span.parent = openSpans.empty() ? 0 : openSpans.back();
    spans_.push_back(std::move(span));
    openSpans.push_back(spans_.back().id);
    return spans_.back().id;
}

void
Tracer::end(std::uint64_t id)
{
    const double end = nowSeconds();
    std::lock_guard<std::mutex> lock(mutex_);
    // Ids are handed out in push order and never reused.
    spans_.at(id - 1).end = end;
    if (!openSpans.empty() && openSpans.back() == id)
        openSpans.pop_back();
}

std::vector<Span>
Tracer::spans() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return spans_;
}

void
Tracer::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    spans_.clear();
    nextId_ = 1;
}

void
Tracer::write(const std::string &path) const
{
    const std::vector<Span> all = spans();
    const std::vector<double> self = selfTimes(all);
    std::FILE *out = std::fopen(path.c_str(), "w");
    if (out == nullptr)
        throw std::runtime_error("cannot write " + path);
    for (std::size_t i = 0; i < all.size(); ++i) {
        Json line = Json::object();
        line.set("id", Json::number(all[i].id));
        line.set("name", Json::string(all[i].name));
        line.set("start", Json::number(all[i].start));
        line.set("end", Json::number(all[i].end));
        line.set("parent", Json::number(all[i].parent));
        line.set("self", Json::number(self[i]));
        std::fprintf(out, "%s\n", line.dump().c_str());
    }
    std::fclose(out);
}

std::map<std::string, double>
layerSelfTimes(const std::vector<Span> &spans)
{
    const std::vector<double> self = selfTimes(spans);
    std::map<std::string, double> layers;
    for (std::size_t i = 0; i < spans.size(); ++i)
        layers[spans[i].name.substr(0, spans[i].name.find('.'))] += self[i];
    return layers;
}

std::vector<double>
spanDurations(const std::vector<Span> &spans, const std::string &name)
{
    std::vector<double> out;
    for (const Span &span : spans) {
        if (span.name == name)
            out.push_back(span.end - span.start);
    }
    return out;
}

// ---- output checks ----

std::size_t
checkRecords(const std::vector<Record> &computed,
             const smtflex::ResultCache &reference,
             std::vector<std::string> *mismatches)
{
    std::size_t bad = 0;
    for (const auto &[key, values] : computed) {
        const auto expected = reference.lookup(key);
        if (expected && *expected == values)
            continue;
        ++bad;
        if (mismatches != nullptr)
            mismatches->push_back(key);
    }
    return bad;
}

bool
responseMatches(const Json &reply, const std::string &expected)
{
    return reply.isObject() && reply.has("ok") && reply.at("ok").isBool() &&
        reply.at("ok").asBool() && reply.has("output") &&
        reply.at("output").isString() &&
        reply.at("output").asString() == expected;
}

std::uint64_t
resultDigest(const smtflex::SimResult &result)
{
    using smtflex::telemetry::MetricValue;
    std::string text;
    char buf[64];
    result.metrics.forEach([&](const std::string &path,
                               const MetricValue &value) {
        text += path;
        text += '=';
        switch (value.type()) {
          case MetricValue::Type::kU64:
            text += std::to_string(value.asU64());
            break;
          case MetricValue::Type::kDouble:
            std::snprintf(buf, sizeof buf, "%a", value.asDouble());
            text += buf;
            break;
          case MetricValue::Type::kBool:
            text += value.asBool() ? "true" : "false";
            break;
          case MetricValue::Type::kString:
            text += value.asString();
            break;
        }
        text += '\n';
    });
    for (const auto &thread : result.threads) {
        text += thread.benchmark + ' ' + std::to_string(thread.startCycle) +
            ' ' + std::to_string(thread.finishCycle) + '\n';
    }
    return smtflex::ckpt::keyHash64(text);
}

// ---- child processes ----

ServerProcess::ServerProcess(const std::vector<std::string> &argv,
                             const std::vector<std::string> &extra_env,
                             const std::string &log_path)
{
    // Everything the child needs is built before fork(): between fork
    // and exec only async-signal-safe calls are allowed.
    std::vector<char *> args;
    for (const auto &a : argv)
        args.push_back(const_cast<char *>(a.c_str()));
    args.push_back(nullptr);
    std::vector<std::string> env_strings;
    for (char **e = environ; *e != nullptr; ++e)
        env_strings.emplace_back(*e);
    env_strings.insert(env_strings.end(), extra_env.begin(),
                       extra_env.end());
    std::vector<char *> envp;
    for (auto &e : env_strings)
        envp.push_back(e.data());
    envp.push_back(nullptr);

    int out_pipe[2];
    if (pipe(out_pipe) != 0)
        throw std::runtime_error("pipe failed");
    const int log_fd =
        open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
             0644);
    if (log_fd < 0) {
        close(out_pipe[0]);
        close(out_pipe[1]);
        throw std::runtime_error("cannot open " + log_path);
    }
    const pid_t parent = getpid();
    const pid_t pid = fork();
    if (pid < 0) {
        close(out_pipe[0]);
        close(out_pipe[1]);
        close(log_fd);
        throw std::runtime_error("fork failed");
    }
    if (pid == 0) {
        prctl(PR_SET_PDEATHSIG, SIGKILL);
        if (getppid() != parent)
            _exit(127);
        dup2(out_pipe[1], STDOUT_FILENO);
        dup2(log_fd, STDERR_FILENO);
        close(out_pipe[0]);
        close(out_pipe[1]);
        execve(args[0], args.data(), envp.data());
        _exit(127);
    }
    pid_ = pid;
    close(out_pipe[1]);
    close(log_fd);
    stdoutFd_ = out_pipe[0];

    // Read stdout until the "listening on HOST:PORT" line.
    std::string seen;
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (true) {
        const auto at = seen.find("listening on ");
        const auto eol =
            at == std::string::npos ? at : seen.find('\n', at);
        if (eol != std::string::npos) {
            const auto colon = seen.rfind(':', seen.find(' ', at + 13));
            port_ = static_cast<std::uint16_t>(
                std::stoul(seen.substr(colon + 1)));
            break;
        }
        const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
                              deadline - Clock::now())
                              .count();
        pollfd pfd{stdoutFd_, POLLIN, 0};
        char buf[512];
        const ssize_t got = left > 0 && poll(&pfd, 1, static_cast<int>(left)) > 0
            ? read(stdoutFd_, buf, sizeof buf)
            : -1;
        if (got <= 0) {
            reap(true);
            throw std::runtime_error("server did not start: " + argv[0] +
                                     " (see " + log_path + ")");
        }
        seen.append(buf, static_cast<std::size_t>(got));
    }
}

ServerProcess::~ServerProcess()
{
    if (pid_ > 0)
        reap(true);
}

bool
ServerProcess::stop()
{
    if (pid_ <= 0)
        return exitedOk_;
    kill(pid_, SIGINT);
    reap(false);
    return exitedOk_;
}

void
ServerProcess::reap(bool force)
{
    if (force)
        kill(pid_, SIGKILL);
    int status = 0;
    rusage usage{};
    const auto deadline = Clock::now() + std::chrono::seconds(20);
    while (true) {
        const pid_t got = wait4(pid_, &status, force ? 0 : WNOHANG, &usage);
        if (got == pid_ || (got < 0 && errno != EINTR))
            break;
        if (got == 0 && Clock::now() > deadline) {
            kill(pid_, SIGKILL);
            force = true;
        } else if (got == 0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
    }
    exitedOk_ = !force && WIFEXITED(status) && WEXITSTATUS(status) == 0;
    peakRssMb_ = static_cast<double>(usage.ru_maxrss) / 1024.0;
    cpuSeconds_ = static_cast<double>(usage.ru_utime.tv_sec) +
        static_cast<double>(usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
    pid_ = -1;
    if (stdoutFd_ >= 0)
        close(stdoutFd_);
    stdoutFd_ = -1;
}

Json
callOnce(std::uint16_t port, const Json &request)
{
    smtflex::serve::Client client;
    client.connect("127.0.0.1", port);
    return client.call(request);
}

void
waitForPing(std::uint16_t port)
{
    Json ping = Json::object();
    ping.set("op", Json::string("ping"));
    const auto deadline = Clock::now() + std::chrono::seconds(60);
    while (true) {
        try {
            const Json reply = callOnce(port, ping);
            if (reply.has("pong"))
                return;
        } catch (const smtflex::FatalError &) {
        }
        if (Clock::now() > deadline)
            throw std::runtime_error("server never answered a ping");
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
}

double
selfPeakRssMb()
{
    // VmHWM follows resetSelfPeakRss(); ru_maxrss does not.
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

void
resetSelfPeakRss()
{
    std::ofstream("/proc/self/clear_refs") << "5";
}

double
selfCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_utime.tv_sec) +
        static_cast<double>(usage.ru_stime.tv_sec) +
        1e-6 * static_cast<double>(usage.ru_utime.tv_usec +
                                   usage.ru_stime.tv_usec);
}

// ---- the result line ----

void
Report::metric(const std::string &name, double value, const std::string &unit)
{
    if (!std::isfinite(value))
        throw std::runtime_error("metric " + name + " is not finite");
    Json entry = Json::object();
    entry.set("value", Json::number(value));
    entry.set("unit", Json::string(unit));
    metrics_.set(name, std::move(entry));
}

void
Report::context(const std::string &key, const std::string &value)
{
    context_.set(key, Json::string(value));
}

void
Report::context(const std::string &key, double value)
{
    context_.set(key, Json::number(value));
}

void
Report::line(const std::string &text)
{
    lines_.push(Json::string(text));
}

std::string
Report::json() const
{
    Json doc = Json::object();
    doc.set("attempted", Json::number(attempted));
    doc.set("failed", Json::number(failed));
    doc.set("metrics", metrics_);
    doc.set("context", context_);
    doc.set("lines", lines_);
    return doc.dump();
}

} // namespace perfbench
