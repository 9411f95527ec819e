#include "service/server.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "sim/profiler.h"
#include "util/json.h"
#include "util/log.h"
#include "util/random.h"
#include "workloads/workload.h"

namespace isrf {

namespace {

constexpr int kPollMs = 100;  ///< listener/connection wake-up tick

/**
 * Per-connection receive-buffer cap: the longest unterminated request
 * line the server will accumulate before rejecting the connection.
 * Legitimate requests are well under 1 KiB; 1 MiB leaves room for any
 * future request shape while bounding what one peer can pin.
 */
constexpr size_t kMaxRequestBytes = 1 << 20;

double
secondsSince(std::chrono::steady_clock::time_point t0)
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - t0)
        .count();
}

/** Write all of `data` + '\n'. @return false on a dead peer. */
bool
sendLine(int fd, const std::string &data)
{
    std::string out = data;
    out += '\n';
    size_t off = 0;
    while (off < out.size()) {
        ssize_t n = ::send(fd, out.data() + off, out.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(n);
    }
    return true;
}

/** A WorkloadResult for a request that never (fully) ran. */
WorkloadResult
syntheticResult(const SweepJob &job, RunStatus status,
                const std::string &error)
{
    WorkloadResult r;
    r.workload = job.workload;
    r.kind = job.cfg.kind;
    r.status = status;
    r.error = error;
    return r;
}

} // namespace

SweepService::~SweepService()
{
    requestStop();
    shutdown();
}

bool
SweepService::buildJob(const ServiceRequest &req, SweepJob &out,
                       std::string &err) const
{
    MachineKind kind;
    if (!machineKindFromName(req.machine, kind)) {
        err = "unknown machine \"" + req.machine + "\"";
        return false;
    }
    out.workload = req.workload;
    out.cfg = configs_.at(kind);
    out.opts.repeats = req.repeats;
    out.opts.seed = req.seed;
    if (req.workload == kHangWorkload) {
        if (!cfg_.allowTestJobs) {
            err = "unknown workload \"" + req.workload +
                  "\"; registered: " + workloadNamesJoined();
            return false;
        }
        // Deadline-enforcement probe: never finishes on its own, but
        // honors the token exactly like an engine-driven run (a real
        // workload polls through Engine::pollCancel; this one polls
        // directly). Custom runners get their own fingerprint class,
        // so it can never alias a registry workload in the store.
        out.runner = [](const MachineConfig &cfg,
                        const WorkloadOptions &opts) {
            WorkloadResult r;
            r.workload = kHangWorkload;
            r.kind = cfg.kind;
            r.error = "synthetic hanging job";
            for (;;) {
                if (opts.cancel) {
                    if (opts.cancel->cancelRequested()) {
                        r.status = RunStatus::Cancelled;
                        break;
                    }
                    if (opts.cancel->deadlineExpired()) {
                        r.status = RunStatus::TimedOut;
                        break;
                    }
                }
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(1));
            }
            return r;
        };
        return true;
    }
    if (!workloadRegistry().count(req.workload)) {
        err = "unknown workload \"" + req.workload +
              "\"; registered: " + workloadNamesJoined();
        return false;
    }
    return true;
}

bool
SweepService::start(const ServiceConfig &cfg)
{
    cfg_ = cfg;
    if (cfg_.workers == 0) {
        unsigned hw = std::thread::hardware_concurrency();
        cfg_.workers = hw ? hw : 1;
    }
    if (cfg_.socketPath.empty()) {
        std::fprintf(stderr, "isrf_sweepd: no socket path\n");
        return false;
    }

    // The one environment read point (PR-3 isolation rule): resolve
    // every machine kind here, on the starting thread. Workers only
    // ever copy these.
    for (MachineKind k : {MachineKind::Base, MachineKind::ISRF1,
                          MachineKind::ISRF4, MachineKind::Cache})
        configs_.emplace(k, MachineConfig::make(k).fromEnv());
    workloadRegistry();
    Profiler::instance();

    if (!cfg_.checkpointDir.empty()) {
        std::string err;
        if (!ensureCheckpointDir(cfg_.checkpointDir, err)) {
            std::fprintf(stderr, "isrf_sweepd: %s\n", err.c_str());
            return false;
        }
    }

    if (!store_.open(cfg_.storePath, cfg_.storeMaxBytes)) {
        std::fprintf(stderr, "isrf_sweepd: cannot open result store "
                     "'%s'\n", cfg_.storePath.c_str());
        return false;
    }
    const ResultStoreStats ss = store_.stats();
    if (ss.persistent)
        std::fprintf(stderr, "isrf_sweepd: store '%s': %zu entries "
                     "recovered (%llu quarantined%s)\n",
                     cfg_.storePath.c_str(), ss.recoveredEntries,
                     static_cast<unsigned long long>(ss.quarantined),
                     ss.tornTailDropped ? ", torn tail dropped" : "");

    // --- Unix-domain listener ---------------------------------------
    sockaddr_un addr;
    std::memset(&addr, 0, sizeof(addr));
    addr.sun_family = AF_UNIX;
    if (cfg_.socketPath.size() >= sizeof(addr.sun_path)) {
        std::fprintf(stderr, "isrf_sweepd: socket path too long: %s\n",
                     cfg_.socketPath.c_str());
        return false;
    }
    std::strncpy(addr.sun_path, cfg_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    unixFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (unixFd_ < 0) {
        std::fprintf(stderr, "isrf_sweepd: socket(): %s\n",
                     std::strerror(errno));
        return false;
    }
    ::unlink(cfg_.socketPath.c_str());  // stale socket from a crash
    if (::bind(unixFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0 ||
        ::listen(unixFd_, 64) != 0) {
        std::fprintf(stderr, "isrf_sweepd: cannot listen on '%s': %s\n",
                     cfg_.socketPath.c_str(), std::strerror(errno));
        ::close(unixFd_);
        unixFd_ = -1;
        return false;
    }

    // --- optional loopback TCP listener -----------------------------
    if (cfg_.tcpPort > 0) {
        tcpFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
        if (tcpFd_ < 0) {
            std::fprintf(stderr, "isrf_sweepd: socket(tcp): %s\n",
                         std::strerror(errno));
            return false;
        }
        int one = 1;
        ::setsockopt(tcpFd_, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in in4;
        std::memset(&in4, 0, sizeof(in4));
        in4.sin_family = AF_INET;
        in4.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        in4.sin_port = htons(static_cast<uint16_t>(cfg_.tcpPort));
        if (::bind(tcpFd_, reinterpret_cast<sockaddr *>(&in4),
                   sizeof(in4)) != 0 ||
            ::listen(tcpFd_, 64) != 0) {
            std::fprintf(stderr, "isrf_sweepd: cannot listen on "
                         "127.0.0.1:%d: %s\n", cfg_.tcpPort,
                         std::strerror(errno));
            ::close(tcpFd_);
            tcpFd_ = -1;
            return false;
        }
    }

    started_ = true;
    for (unsigned i = 0; i < cfg_.workers; i++)
        workers_.emplace_back([this] { workerLoop(); });
    acceptors_.emplace_back([this] { acceptLoop(unixFd_); });
    if (tcpFd_ >= 0)
        acceptors_.emplace_back([this] { acceptLoop(tcpFd_); });
    return true;
}

void
SweepService::requestDrain()
{
    draining_.store(true, std::memory_order_relaxed);
}

void
SweepService::requestStop()
{
    draining_.store(true, std::memory_order_relaxed);
    // One relaxed atomic store, so this path (minus shutdown's joins)
    // is usable from a signal handler; running jobs observe it at
    // their next cycle-boundary poll and exit Cancelled.
    stopToken_.cancel();
}

void
SweepService::requestCheckpointAll()
{
    std::lock_guard<std::mutex> lock(ckptMu_);
    for (CheckpointContext *c : activeCheckpoints_)
        c->requestSave();
}

size_t
SweepService::pendingJobs() const
{
    std::lock_guard<std::mutex> lock(qmu_);
    return inflight_.size();
}

ServiceCounters
SweepService::counters() const
{
    std::lock_guard<std::mutex> lock(cmu_);
    return counters_;
}

void
SweepService::shutdown()
{
    if (!started_)
        return;
    draining_.store(true, std::memory_order_relaxed);
    // Drain: every admitted job completes (a stop token cancellation,
    // if requested, just makes that fast) before any thread is torn
    // down — connection threads are still alive to deliver responses.
    while (pendingJobs() != 0)
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
    stopping_.store(true, std::memory_order_relaxed);
    qcv_.notify_all();
    for (auto &t : workers_)
        t.join();
    workers_.clear();
    for (auto &t : acceptors_)
        t.join();
    acceptors_.clear();
    {
        std::lock_guard<std::mutex> lock(connMu_);
        for (auto &t : connections_)
            t.join();
        connections_.clear();
    }
    if (unixFd_ >= 0)
        ::close(unixFd_);
    unixFd_ = -1;
    if (tcpFd_ >= 0)
        ::close(tcpFd_);
    tcpFd_ = -1;
    ::unlink(cfg_.socketPath.c_str());
    store_.close();
    started_ = false;
}

void
SweepService::acceptLoop(int listenFd)
{
    while (!draining_.load(std::memory_order_relaxed) &&
           !stopping_.load(std::memory_order_relaxed)) {
        pollfd p{listenFd, POLLIN, 0};
        int rc = ::poll(&p, 1, kPollMs);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0 || !(p.revents & POLLIN))
            continue;
        int fd = ::accept(listenFd, nullptr, nullptr);
        if (fd < 0)
            continue;
        {
            std::lock_guard<std::mutex> lock(cmu_);
            counters_.connections++;
        }
        liveConnections_.fetch_add(1, std::memory_order_relaxed);
        std::lock_guard<std::mutex> lock(connMu_);
        connections_.emplace_back(
            [this, fd] { serveConnection(fd); });
    }
}

void
SweepService::serveConnection(int fd)
{
    std::string buf;
    char chunk[1 << 14];
    double idleMs = 0.0;
    bool discarding = false;
    while (!stopping_.load(std::memory_order_relaxed)) {
        pollfd p{fd, POLLIN, 0};
        int rc = ::poll(&p, 1, kPollMs);
        if (rc < 0 && errno != EINTR)
            break;
        if (rc <= 0) {
            // No bytes this tick: charge the poll interval against the
            // idle budget. Any received data resets it below.
            idleMs += kPollMs;
            if (cfg_.idleTimeoutMs > 0.0 &&
                idleMs >= cfg_.idleTimeoutMs) {
                {
                    std::lock_guard<std::mutex> lock(cmu_);
                    counters_.idleDisconnects++;
                }
                if (cfg_.verbose)
                    std::fprintf(stderr, "isrf_sweepd: closing idle "
                                 "connection (%.0f ms)\n", idleMs);
                break;
            }
            continue;
        }
        ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n == 0)
            break;  // peer closed
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN)
                continue;
            break;
        }
        idleMs = 0.0;
        if (discarding)
            continue;
        buf.append(chunk, static_cast<size_t>(n));
        // Admission control for bytes: a peer may not stream an
        // unbounded line into our memory. Past the cap with no
        // newline in sight, answer with a structured error and hang
        // up — the line could never parse anyway. The rest of the
        // peer's bytes are read and dropped until it closes: closing
        // with unread input resets the connection, which fails the
        // peer's pending send and can cost it the error line.
        if (buf.size() > kMaxRequestBytes &&
            buf.find('\n') == std::string::npos) {
            {
                std::lock_guard<std::mutex> lock(cmu_);
                counters_.requestTooLarge++;
            }
            sendLine(fd, errorResponseJson(
                "", "request_too_large",
                strprintf("request line exceeds %zu bytes",
                          kMaxRequestBytes)));
            ::shutdown(fd, SHUT_WR);
            buf.clear();
            discarding = true;
            continue;
        }
        size_t nl;
        bool dead = false;
        while ((nl = buf.find('\n')) != std::string::npos) {
            std::string line = buf.substr(0, nl);
            buf.erase(0, nl + 1);
            if (!line.empty() && line.back() == '\r')
                line.pop_back();
            if (line.empty())
                continue;
            if (!sendLine(fd, handleLine(line))) {
                dead = true;
                break;
            }
        }
        if (dead)
            break;
    }
    ::close(fd);
    liveConnections_.fetch_sub(1, std::memory_order_relaxed);
}

std::string
SweepService::handleLine(const std::string &line)
{
    {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.requests++;
    }
    ServiceRequest req;
    std::string err;
    if (!parseServiceRequest(line, req, err)) {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.badRequests++;
        return errorResponseJson(req.id, "bad_request", err);
    }
    if (req.op == "ping")
        return pongResponseJson(req.id,
                                draining_.load(
                                    std::memory_order_relaxed));
    if (req.op == "stats")
        return statsResponseLocked(req.id);
    return handleRun(req);
}

std::string
SweepService::handleRun(const ServiceRequest &req)
{
    {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.runRequests++;
    }
    if (draining_.load(std::memory_order_relaxed)) {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.rejectedDraining++;
        return errorResponseJson(req.id, "draining",
                                 "server is draining; not accepting "
                                 "new jobs");
    }

    SweepJob job;
    std::string err;
    if (!buildJob(req, job, err)) {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.badRequests++;
        // Prefix match: the workload message now carries the full
        // registry listing, which could itself contain "machine"
        // (e.g. a dataset stem), so substring search is not safe.
        const char *code = err.rfind("unknown machine", 0) == 0
                               ? "unknown_machine"
                               : "unknown_workload";
        return errorResponseJson(req.id, code, err);
    }
    const uint64_t fp = SweepRunner::fingerprint(job);

    // Fast path: serve stored bytes. No Machine is constructed, no
    // queue is entered — this is what keeps hot-hit latency orders of
    // magnitude below cold-compute latency.
    StoredResult hit;
    if (store_.get(fp, hit)) {
        {
            std::lock_guard<std::mutex> lock(cmu_);
            counters_.storeHits++;
        }
        if (cfg_.verbose)
            std::fprintf(stderr, "isrf_sweepd: hit  %s [%s/%s]\n",
                         fingerprintHex(fp).c_str(),
                         hit.workload.c_str(), hit.machine.c_str());
        return resultResponseJson(req.id, fp, /*cached=*/true,
                                  runStatusName(hit.status),
                                  /*attempts=*/0, /*wallSeconds=*/0.0,
                                  hit.resultText);
    }

    // Admission: coalesce onto an identical in-flight job, else take a
    // bounded queue slot, else shed load explicitly.
    JobPtr p;
    {
        std::lock_guard<std::mutex> lock(qmu_);
        auto it = inflight_.find(fp);
        if (it != inflight_.end()) {
            p = it->second;
            std::lock_guard<std::mutex> clock(cmu_);
            counters_.coalesced++;
        } else if (queue_.size() >= cfg_.queueMax) {
            {
                std::lock_guard<std::mutex> clock(cmu_);
                counters_.rejectedOverload++;
            }
            return errorResponseJson(
                req.id, "overloaded",
                strprintf("admission queue full (%zu jobs); retry "
                          "later", queue_.size()));
        } else {
            p = std::make_shared<PendingJob>();
            p->job = std::move(job);
            p->fp = fp;
            p->retries = req.retries >= 0
                             ? static_cast<uint32_t>(req.retries)
                             : cfg_.retries;
            // The deadline is armed here, at admission, so it covers
            // queue wait: an overloaded server times requests out
            // instead of serving them arbitrarily late.
            p->token.chainTo(&stopToken_);
            double deadlineMs = req.deadlineMs > 0.0
                                    ? req.deadlineMs
                                    : cfg_.defaultDeadlineMs;
            if (cfg_.maxDeadlineMs > 0.0 &&
                (deadlineMs <= 0.0 || deadlineMs > cfg_.maxDeadlineMs))
                deadlineMs = cfg_.maxDeadlineMs;
            if (deadlineMs > 0.0)
                p->token.setTimeout(deadlineMs / 1000.0);
            inflight_.emplace(fp, p);
            queue_.push_back(p);
            {
                std::lock_guard<std::mutex> clock(cmu_);
                counters_.admitted++;
            }
            qcv_.notify_one();
        }
    }

    std::unique_lock<std::mutex> lock(p->mu);
    p->cv.wait(lock, [&] { return p->done; });
    const SweepOutcome &o = p->outcome;
    return resultResponseJson(req.id, fp, /*cached=*/false,
                              runStatusName(o.status), o.attempts,
                              o.wallSeconds, o.resultText);
}

std::string
SweepService::statsResponseLocked(const std::string &id)
{
    const ServiceCounters c = counters();
    size_t depth, inflight;
    {
        std::lock_guard<std::mutex> lock(qmu_);
        depth = queue_.size();
        inflight = inflight_.size();
    }
    const ResultStoreStats ss = store_.stats();
    const Profiler &prof = Profiler::instance();

    JsonWriter w;
    w.beginObject();
    w.field("ok", true);
    if (!id.empty())
        w.field("id", id);
    w.field("op", std::string("stats"));
    w.field("draining",
            draining_.load(std::memory_order_relaxed));
    w.key("service").beginObject();
    w.field("workers", static_cast<uint64_t>(cfg_.workers));
    w.field("queue_depth", static_cast<uint64_t>(depth));
    w.field("queue_max", static_cast<uint64_t>(cfg_.queueMax));
    w.field("inflight", static_cast<uint64_t>(inflight));
    w.field("connections", c.connections);
    w.field("live_connections",
            liveConnections_.load(std::memory_order_relaxed));
    w.field("requests", c.requests);
    w.field("bad_requests", c.badRequests);
    w.field("run_requests", c.runRequests);
    w.field("store_hits", c.storeHits);
    w.field("coalesced", c.coalesced);
    w.field("admitted", c.admitted);
    w.field("rejected_overload", c.rejectedOverload);
    w.field("rejected_draining", c.rejectedDraining);
    w.field("computed", c.computed);
    w.field("deadline_expired_in_queue", c.deadlineExpiredInQueue);
    w.field("timed_out", c.timedOut);
    w.field("cancelled", c.cancelled);
    w.field("failed", c.failed);
    w.field("stalled", c.stalled);
    w.field("retried_attempts", c.retriedAttempts);
    w.field("request_too_large", c.requestTooLarge);
    w.field("idle_disconnects", c.idleDisconnects);
    w.field("checkpoint_saves", c.checkpointSaves);
    w.field("checkpoint_restores", c.checkpointRestores);
    w.endObject();
    w.key("store").beginObject();
    w.field("persistent", ss.persistent);
    w.field("entries", static_cast<uint64_t>(ss.entries));
    w.field("live_bytes", static_cast<uint64_t>(ss.liveBytes));
    w.field("log_bytes", static_cast<uint64_t>(ss.logBytes));
    w.field("max_bytes", static_cast<uint64_t>(ss.maxBytes));
    w.field("hits", ss.hits);
    w.field("misses", ss.misses);
    w.field("puts", ss.puts);
    w.field("evicted", ss.evicted);
    w.field("quarantined", ss.quarantined);
    w.field("compactions", ss.compactions);
    w.field("recovered_entries",
            static_cast<uint64_t>(ss.recoveredEntries));
    w.field("torn_tail_dropped", ss.tornTailDropped);
    w.endObject();
    // The zero-Machine-constructions attestation for cache hits: Run
    // counts every StreamProgram::run drive loop (ISRF_PROFILE=on), so
    // a hits-only interval moves neither "computed" nor "run_calls".
    w.key("profile").beginObject();
    w.field("enabled", prof.enabled());
    w.field("run_calls", prof.phase(Profiler::Run).calls);
    w.endObject();
    w.endObject();
    return w.str();
}

void
SweepService::workerLoop()
{
    for (;;) {
        JobPtr p;
        {
            std::unique_lock<std::mutex> lock(qmu_);
            qcv_.wait(lock, [&] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (queue_.empty()) {
                // stopping_ and drained: shutdown() guarantees the
                // queue only empties for good once draining_ holds.
                return;
            }
            p = queue_.front();
            queue_.pop_front();
        }

        executeJob(*p);

        // Persist before publishing: a request admitted in the window
        // between inflight-erase and store-put would recompute, which
        // is correct (deterministic job) — just not free. Only
        // deterministic outcomes are stored (replayable(): Done /
        // Stalled / Failed); TimedOut / Cancelled reflect wall-clock
        // luck and must re-run. Custom-runner jobs (the hang probe)
        // cannot be attested by the store and are never put.
        if (!p->job.runner && SweepRunner::replayable(p->outcome.status)) {
            StoredResult sr;
            sr.workload = p->outcome.workload;
            sr.machine = machineKindName(p->outcome.kind);
            sr.status = p->outcome.status;
            sr.resultText = p->outcome.resultText;
            store_.put(p->fp, sr);
        }
        {
            std::lock_guard<std::mutex> lock(qmu_);
            inflight_.erase(p->fp);
        }
        {
            std::lock_guard<std::mutex> lock(p->mu);
            p->done = true;
        }
        p->cv.notify_all();
    }
}

void
SweepService::executeJob(PendingJob &p)
{
    SweepOutcome &o = p.outcome;
    o.workload = p.job.workload;
    o.kind = p.job.cfg.kind;

    auto finish = [&](RunStatus finalStatus) {
        std::lock_guard<std::mutex> lock(cmu_);
        switch (finalStatus) {
          case RunStatus::TimedOut: counters_.timedOut++; break;
          case RunStatus::Cancelled: counters_.cancelled++; break;
          case RunStatus::Failed: counters_.failed++; break;
          case RunStatus::Stalled: counters_.stalled++; break;
          default: break;
        }
        counters_.retriedAttempts += o.attempts > 0 ? o.attempts - 1
                                                    : 0;
    };

    // The deadline covers queue wait: a request that waited past its
    // budget is bounced here without ever simulating — under overload
    // the pool spends cycles only on requests that can still make it.
    if (p.token.cancelRequested() || p.token.deadlineExpired()) {
        const bool cancelled = p.token.cancelRequested();
        o.status = cancelled ? RunStatus::Cancelled
                             : RunStatus::TimedOut;
        o.attempts = 0;
        o.result = syntheticResult(
            p.job, o.status,
            cancelled ? "cancelled before execution"
                      : "deadline expired while queued");
        o.resultText = resultJson(o.result);
        {
            std::lock_guard<std::mutex> lock(cmu_);
            if (!cancelled)
                counters_.deadlineExpiredInQueue++;
        }
        finish(o.status);
        return;
    }

    {
        std::lock_guard<std::mutex> lock(cmu_);
        counters_.computed++;
    }
    if (cfg_.verbose)
        std::fprintf(stderr, "isrf_sweepd: run  %s [%s/%s]\n",
                     fingerprintHex(p.fp).c_str(),
                     p.job.workload.c_str(),
                     p.job.cfg.name().c_str());

    const uint32_t maxAttempts = 1 + p.retries;
    Rng jitter(p.fp ^ 0x9e3779b97f4a7c15ull);

    // One context per job, shared across attempts and registered so
    // requestCheckpointAll() (periodic tick, SIGTERM drain) reaches
    // it. requestSave() is the only cross-thread call; everything else
    // stays on this worker.
    std::unique_ptr<CheckpointContext> ckpt;
    if (!cfg_.checkpointDir.empty()) {
        ckpt = std::make_unique<CheckpointContext>(
            checkpointFilePath(cfg_.checkpointDir, p.fp), p.fp,
            cfg_.checkpointEveryCycles);
        std::lock_guard<std::mutex> lock(ckptMu_);
        activeCheckpoints_.push_back(ckpt.get());
    }

    for (uint32_t attempt = 1; attempt <= maxAttempts; attempt++) {
        CancelToken attemptToken;
        attemptToken.chainTo(&p.token);
        WorkloadOptions opts = p.job.opts;
        opts.cancel = &attemptToken;
        if (ckpt)
            opts.checkpoint = ckpt.get();

        auto t0 = std::chrono::steady_clock::now();
        WorkloadResult r;
        try {
            r = p.job.runner
                    ? p.job.runner(p.job.cfg, opts)
                    : runWorkload(p.job.workload, p.job.cfg, opts);
        } catch (const std::exception &e) {
            // A throwing job is a Failed response, never a dead
            // worker: the pool must survive anything a request does.
            r = syntheticResult(p.job, RunStatus::Failed, e.what());
            ISRF_WARN("service job '%s' on %s threw: %s",
                      p.job.workload.c_str(), p.job.cfg.name().c_str(),
                      e.what());
        } catch (...) {
            r = syntheticResult(p.job, RunStatus::Failed,
                                "unknown exception");
        }
        o.result = std::move(r);
        o.status = o.result.status;
        o.attempts = attempt;
        o.wallSeconds += secondsSince(t0);
        {
            Profiler::Scope prof(Profiler::instance(),
                                 Profiler::Report);
            o.resultText = resultJson(o.result);
        }

        // Done / Cancelled / Failed are final. Stalled / TimedOut may
        // be transient — retry while the *request* deadline (not a
        // per-attempt one) still has budget.
        if (o.status != RunStatus::TimedOut &&
            o.status != RunStatus::Stalled)
            break;
        if (attempt == maxAttempts)
            break;
        if (p.token.cancelRequested() || p.token.deadlineExpired())
            break;

        double delay = cfg_.backoffBaseSeconds *
            static_cast<double>(1ull << (attempt - 1));
        delay = std::min(delay, cfg_.backoffCapSeconds);
        delay *= 0.5 + jitter.uniform();  // +-50% jitter
        ISRF_WARN("service job '%s' on %s %s (attempt %u/%u); "
                  "retrying in %.2fs", p.job.workload.c_str(),
                  p.job.cfg.name().c_str(), runStatusName(o.status),
                  attempt, maxAttempts, delay);
        auto until = std::chrono::steady_clock::now() +
            std::chrono::duration<double>(delay);
        while (std::chrono::steady_clock::now() < until) {
            if (p.token.cancelRequested() ||
                p.token.deadlineExpired())
                break;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(10));
        }
    }

    if (ckpt) {
        {
            std::lock_guard<std::mutex> lock(ckptMu_);
            activeCheckpoints_.erase(
                std::find(activeCheckpoints_.begin(),
                          activeCheckpoints_.end(), ckpt.get()));
        }
        {
            std::lock_guard<std::mutex> lock(cmu_);
            counters_.checkpointSaves += ckpt->saves();
            counters_.checkpointRestores += ckpt->restores();
        }
        // Deterministic outcomes go to the result store; their
        // checkpoint will never be read again. TimedOut/Cancelled
        // keep theirs so a re-submission resumes mid-flight.
        if (SweepRunner::replayable(o.status))
            ckpt->removeFile();
    }
    finish(o.status);
}

} // namespace isrf
