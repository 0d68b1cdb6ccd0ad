// nb_serve end-to-end robustness tests (serve/server.h): submit round-trips
// with byte-identical stored artifacts, typed load-shedding at the admission
// bound, per-job deadlines through the CancelToken chain, transient-fault
// retry at the server boundary, store faults mid-job, graceful drain (finish
// in-flight, reject new, hard-cancel stragglers), and the wire-level error
// contract for malformed requests. The server runs in-process; clients talk
// to it over its real unix socket.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/failpoint.h"
#include "common/json.h"
#include "scenarios/spec_json.h"
#include "scenarios/sweep.h"
#include "serve/client.h"
#include "serve/server.h"
#include "serve/wire.h"
#include "sim/codebook_cache.h"

namespace nb {
namespace {

std::string scratch(const std::string& leaf) {
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    return ::testing::TempDir() + info->name() + "." + leaf;
}

void remove_tree(const std::string& path) {
    const std::string command = "rm -rf '" + path + "'";
    [[maybe_unused]] const int rc = std::system(command.c_str());
}

/// The tiny sweep every serve test submits: milliseconds of work, real
/// noise, deterministic artifact.
std::string tiny_spec(std::uint64_t seed = 3, std::size_t rounds = 2) {
    std::ostringstream out;
    out << R"({"schema":"nb-spec/v1","sweep":"serve-test","scenarios":[{"name":"job",)"
        << R"("rounds":)" << rounds
        << R"(,"topology":{"family":"random_regular","n":16,"degree":4,"seed":7},)"
        << R"("channel":{"kind":"iid","epsilon":0.1},)"
        << R"("workload":{"message_bits":4,"seed":)" << seed << "}}]}";
    return out.str();
}

std::string submit_line(const std::string& spec, const std::string& extra_fields = "") {
    return "{\"op\":\"submit\"" + extra_fields + ",\"spec\":" + spec + "}";
}

/// Wait, with a 30 s bound, until `reached()` holds: tests synchronize on
/// observable server state, never on a guessed sleep. Returns whether the
/// state was reached.
template <typename Predicate>
bool wait_until(Predicate reached) {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(30);
    while (!reached()) {
        if (std::chrono::steady_clock::now() >= deadline) {
            return false;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return true;
}

/// Whether a job has entered its first attempt: the serve.job failpoint
/// counts its hit before a delay mode sleeps.
bool job_started() {
    return failpoint::hits("serve.job") >= 1;
}

class ServeTest : public ::testing::Test {
protected:
    void TearDown() override {
        if (server_ != nullptr) {
            server_->request_drain();
            server_->wait();
            server_.reset();
        }
        failpoint::clear_all();
        remove_tree(store_dir_);
        ::unlink(socket_path_.c_str());
    }

    serve::Server& start(serve::ServerConfig config = {}) {
        socket_path_ = scratch("sock");
        store_dir_ = scratch("store");
        ::unlink(socket_path_.c_str());
        remove_tree(store_dir_);
        config.socket_path = socket_path_;
        config.store_dir = store_dir_;
        server_ = std::make_unique<serve::Server>(config);
        server_->start();
        return *server_;
    }

    serve::Client connect() {
        serve::Client client;
        EXPECT_TRUE(client.connect_wait(socket_path_, 5.0));
        return client;
    }

    std::string socket_path_;
    std::string store_dir_;
    std::unique_ptr<serve::Server> server_;
};

/// Field access with hard failure on shape mismatch.
const JsonValue& member(const JsonValue& value, const char* key) {
    const JsonValue* found = value.find(key);
    EXPECT_NE(found, nullptr) << "missing field " << key;
    return *found;
}

TEST_F(ServeTest, PingAnswersSchema) {
    start();
    serve::Client client = connect();
    const auto response = client.request(R"({"op":"ping"})");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "schema").as_string(), "nb-serve/v1");
}

TEST_F(ServeTest, SubmitExecutesAndStoresByteIdenticalArtifact) {
    start();
    serve::Client client = connect();
    const std::string spec_text = tiny_spec();
    const auto response =
        client.request(submit_line(spec_text, R"(,"store_as":"artifact")"));
    ASSERT_TRUE(response.has_value());
    ASSERT_TRUE(member(*response, "ok").as_bool())
        << member(*response, "status").as_string();
    EXPECT_EQ(member(*response, "status").as_string(), "done");
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 1u);
    EXPECT_EQ(member(*response, "stored_version").as_uint64(), 1u);

    // The artifact is the canonical nb-sweep/v1 bytes: byte-identical to
    // running the same spec locally (analytic cache block, no timing).
    const SweepSpec spec = sweep_spec_from_json(spec_text, "test");
    const SweepResult local = run_sweep(spec);
    std::ostringstream expected;
    JsonWriter json(expected);
    sweep_results_json(json, local);
    EXPECT_EQ(member(*response, "artifact").as_string(), expected.str());

    // And the stored object is those same bytes, via the store protocol.
    const auto stored = client.request(R"({"op":"get","name":"artifact"})");
    ASSERT_TRUE(stored.has_value());
    ASSERT_TRUE(member(*stored, "ok").as_bool());
    EXPECT_EQ(member(*stored, "version").as_uint64(), 1u);
    EXPECT_EQ(member(*stored, "bytes").as_string(), expected.str());
}

TEST_F(ServeTest, StoreOpsRoundTripThroughTheWire) {
    start();
    serve::Client client = connect();
    auto response = client.request(R"({"op":"put","name":"obj","bytes":"hello"})");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "version").as_uint64(), 1u);

    response = client.request(R"({"op":"cput","name":"obj","bytes":"v2","expected":1})");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());

    // Stale expectation: typed conflict, not an error.
    response = client.request(R"({"op":"cput","name":"obj","bytes":"v3","expected":1})");
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "status").as_string(), "conflict");

    response = client.request(R"({"op":"list"})");
    ASSERT_TRUE(response.has_value());
    ASSERT_EQ(member(*response, "objects").items().size(), 1u);
    EXPECT_EQ(member(member(*response, "objects").items()[0], "version").as_uint64(), 2u);
}

TEST_F(ServeTest, OverloadShedsTypedRejectionsImmediately) {
    serve::ServerConfig config;
    config.queue_capacity = 1;
    config.executors = 1;
    config.max_retries = 0;
    start(config);

    // Slow every job down so concurrent submits pile onto the full queue.
    failpoint::Config slow;
    slow.mode = failpoint::Mode::delay;
    slow.delay_ms = 150;
    failpoint::configure("serve.job", slow);

    constexpr int clients = 6;
    std::atomic<int> done{0};
    std::atomic<int> shed{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < clients; ++i) {
        threads.emplace_back([&] {
            serve::Client client;
            ASSERT_TRUE(client.connect_wait(socket_path_, 5.0));
            const auto response = client.request(submit_line(tiny_spec()));
            ASSERT_TRUE(response.has_value());
            if (member(*response, "ok").as_bool()) {
                done.fetch_add(1);
            } else if (member(*response, "status").as_string() == "rejected") {
                EXPECT_EQ(member(*response, "reason").as_string(), "overloaded");
                shed.fetch_add(1);
            }
        });
    }
    for (auto& thread : threads) {
        thread.join();
    }
    failpoint::clear("serve.job");

    // With one executor, one queue slot, and 150 ms jobs, six simultaneous
    // submits cannot all be admitted — and nothing may fall through the
    // typed done/rejected taxonomy.
    EXPECT_GE(done.load(), 1);
    EXPECT_GE(shed.load(), 1);
    EXPECT_EQ(done.load() + shed.load(), clients);
    EXPECT_EQ(server_->counters().shed_overloaded,
              static_cast<std::uint64_t>(shed.load()));
}

TEST_F(ServeTest, DeadlineSpentInQueueClassifiesAsTimeout) {
    serve::ServerConfig config;
    config.max_retries = 3;  // a timeout on a dead token must NOT retry
    start(config);
    serve::Client client = connect();
    // A deadline so small it expires before the executor can pick the job
    // up: the first poll kills it, classified timeout, zero sweep work.
    const auto response =
        client.request(submit_line(tiny_spec(), R"(,"deadline_seconds":1e-9)"));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "status").as_string(), "error");
    EXPECT_EQ(member(member(*response, "error"), "kind").as_string(), "timeout");
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 1u);
}

TEST_F(ServeTest, TransientFaultIsRetriedWithBackoffAndSucceeds) {
    serve::ServerConfig config;
    config.max_retries = 2;
    config.retry_backoff_ms = 1;
    start(config);

    failpoint::Config fault;
    fault.mode = failpoint::Mode::inject_throw;
    fault.max_hits = 1;  // fail once, then heal — the transient model
    failpoint::configure("serve.job", fault);

    serve::Client client = connect();
    const auto response = client.request(submit_line(tiny_spec()));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 2u);
    EXPECT_EQ(server_->counters().retries, 1u);
}

TEST_F(ServeTest, ExhaustedRetriesReportTheClassifiedError) {
    serve::ServerConfig config;
    config.max_retries = 1;
    config.retry_backoff_ms = 1;
    start(config);

    failpoint::Config fault;
    fault.mode = failpoint::Mode::inject_throw;  // fires forever
    failpoint::configure("serve.job", fault);

    serve::Client client = connect();
    const auto response = client.request(submit_line(tiny_spec()));
    failpoint::clear("serve.job");
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 2u);  // 1 + max_retries
    const JsonValue& error = member(*response, "error");
    EXPECT_EQ(member(error, "kind").as_string(), "transient");
    EXPECT_EQ(member(error, "site").as_string(), "serve.job");
}

TEST_F(ServeTest, FatalSpecErrorsAnswerImmediatelyWithoutRetry) {
    serve::ServerConfig config;
    config.max_retries = 3;
    start(config);
    serve::Client client = connect();
    // Structurally valid JSON, semantically broken spec (unknown family):
    // precondition_error → fatal → exactly one attempt.
    const std::string broken =
        R"({"schema":"nb-spec/v1","scenarios":[{"name":"x","topology":{"family":"nope"}}]})";
    const auto response = client.request(submit_line(broken));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(member(*response, "error"), "kind").as_string(), "fatal");
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 1u);
}

TEST_F(ServeTest, StorePutOomMidJobIsTransientAndStoreStaysRecoverable) {
    serve::ServerConfig config;
    config.max_retries = 0;  // surface the first failure to the client
    start(config);

    failpoint::Config fault;
    fault.mode = failpoint::Mode::oom;
    fault.max_hits = 1;
    failpoint::configure("store.put", fault);

    serve::Client client = connect();
    auto response = client.request(submit_line(tiny_spec(), R"(,"store_as":"artifact")"));
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(member(*response, "error"), "kind").as_string(), "transient");

    // The failed put published nothing.
    response = client.request(R"({"op":"get","name":"artifact"})");
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());

    // Healed: the client-level retry succeeds and the store serves it.
    response = client.request(submit_line(tiny_spec(), R"(,"store_as":"artifact")"));
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(*response, "stored_version").as_uint64(), 1u);
}

TEST_F(ServeTest, DrainFinishesInFlightAndRejectsNewSubmits) {
    serve::ServerConfig config;
    config.executors = 1;
    config.drain_seconds = 10.0;
    start(config);

    // First job runs slow enough for the drain to start while it executes.
    failpoint::Config slow;
    slow.mode = failpoint::Mode::delay;
    slow.delay_ms = 300;
    slow.max_hits = 1;
    failpoint::configure("serve.job", slow);

    std::optional<JsonValue> in_flight;
    std::thread submitter([&] {
        serve::Client client;
        ASSERT_TRUE(client.connect_wait(socket_path_, 5.0));
        in_flight = client.request(submit_line(tiny_spec()));
    });
    // A second connection opened BEFORE the drain (after it, connect fails
    // outright — the listener is closed and the socket unlinked).
    serve::Client late = connect();

    EXPECT_TRUE(wait_until(job_started));
    server_->request_drain();  // draining from here on: the late submit is shed

    const auto rejected = late.request(submit_line(tiny_spec()));
    ASSERT_TRUE(rejected.has_value());
    EXPECT_FALSE(member(*rejected, "ok").as_bool());
    EXPECT_EQ(member(*rejected, "status").as_string(), "rejected");
    EXPECT_EQ(member(*rejected, "reason").as_string(), "draining");

    submitter.join();
    server_->wait();

    // The in-flight job finished normally inside the grace period.
    ASSERT_TRUE(in_flight.has_value());
    EXPECT_TRUE(member(*in_flight, "ok").as_bool());
    EXPECT_EQ(server_->counters().drain_cancelled, 0u);
    server_.reset();
}

TEST_F(ServeTest, DrainDeadlineHardCancelsStragglers) {
    serve::ServerConfig config;
    config.drain_seconds = 0.05;
    config.max_retries = 3;  // a drain cancel must not be retried either
    start(config);

    // A job long enough to outlive the 50 ms grace period by far: the drain
    // token must reach its transport polls through the parent chain. The
    // one-hit zero-length delay only marks the moment the job starts.
    failpoint::Config mark;
    mark.mode = failpoint::Mode::delay;
    mark.max_hits = 1;
    failpoint::configure("serve.job", mark);
    std::optional<JsonValue> response;
    std::thread submitter([&] {
        serve::Client client;
        ASSERT_TRUE(client.connect_wait(socket_path_, 5.0));
        response = client.request(submit_line(tiny_spec(/*seed=*/9, /*rounds=*/2000)));
    });
    EXPECT_TRUE(wait_until(job_started));
    server_->request_drain();
    server_->wait();
    submitter.join();

    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    EXPECT_EQ(member(member(*response, "error"), "kind").as_string(), "timeout");
    EXPECT_EQ(member(*response, "attempts").as_uint64(), 1u);
    EXPECT_GE(server_->counters().drain_cancelled, 1u);
    server_.reset();
}

TEST(LineReaderWire, PipelinedBurstReturnsEveryLineInOrder) {
    // A client may write many frames in one burst; the reader must hand
    // them back one by one without re-scanning or memmoving the remainder
    // per line (the erase-per-line implementation was O(bytes^2) here).
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    const std::size_t lines = 500;
    std::string burst;
    for (std::size_t i = 0; i < lines; ++i) {
        burst += "{\"op\":\"ping\",\"seq\":" + std::to_string(i) + "}\n";
    }
    // Writer thread: one socketpair buffer may not hold the whole burst.
    std::thread writer([&] {
        std::size_t sent = 0;
        while (sent < burst.size()) {
            const ssize_t n = ::send(fds[1], burst.data() + sent, burst.size() - sent,
                                     MSG_NOSIGNAL);
            if (n <= 0) {
                break;
            }
            sent += static_cast<std::size_t>(n);
        }
        ::close(fds[1]);
    });

    serve::LineReader reader(fds[0]);
    std::string line;
    for (std::size_t i = 0; i < lines; ++i) {
        ASSERT_TRUE(reader.read_line(line, 1 << 20)) << "line " << i;
        EXPECT_EQ(line, "{\"op\":\"ping\",\"seq\":" + std::to_string(i) + "}");
    }
    EXPECT_FALSE(reader.read_line(line, 1 << 20));  // clean EOF
    writer.join();
    ::close(fds[0]);
}

TEST(LineReaderWire, LengthBoundAppliesPerLineNotPerBufferPosition) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    // Two short lines followed by one exactly at the bound, all in one
    // burst: the third line starts deep into the buffer, and the bound must
    // be measured from the line's own start (the consumed-prefix cursor),
    // not from the buffer base.
    const std::size_t max_bytes = 64;
    const std::string a(40, 'a');
    const std::string b(40, 'b');
    const std::string c(max_bytes, 'c');
    const std::string burst = a + "\n" + b + "\n" + c + "\n";
    ASSERT_EQ(::send(fds[1], burst.data(), burst.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(burst.size()));

    serve::LineReader reader(fds[0]);
    std::string line;
    ASSERT_TRUE(reader.read_line(line, max_bytes));
    EXPECT_EQ(line, a);
    ASSERT_TRUE(reader.read_line(line, max_bytes));
    EXPECT_EQ(line, b);
    ASSERT_TRUE(reader.read_line(line, max_bytes));
    EXPECT_EQ(line, c);

    // One byte past the bound is cut off.
    const std::string too_long(max_bytes + 1, 'd');
    const std::string tail = too_long + "\n";
    ASSERT_EQ(::send(fds[1], tail.data(), tail.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(tail.size()));
    EXPECT_FALSE(reader.read_line(line, max_bytes));

    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(LineReaderWire, LineSplitAcrossRecvBoundariesAssembles) {
    int fds[2] = {-1, -1};
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);

    serve::LineReader reader(fds[0]);
    std::string line;
    const std::string full = "{\"op\":\"submit\",\"payload\":\"0123456789\"}";
    std::thread writer([&] {
        for (const char ch : full) {
            ASSERT_EQ(::send(fds[1], &ch, 1, MSG_NOSIGNAL), 1);
        }
        const char newline = '\n';
        ASSERT_EQ(::send(fds[1], &newline, 1, MSG_NOSIGNAL), 1);
        ::close(fds[1]);
    });
    ASSERT_TRUE(reader.read_line(line, 1 << 10));
    EXPECT_EQ(line, full);
    EXPECT_FALSE(reader.read_line(line, 1 << 10));  // EOF, no torn frame left
    writer.join();
    ::close(fds[0]);
}

TEST_F(ServeTest, DrainInterruptsRetryBackoffWithinGracePeriod) {
    // Regression test: the retry backoff was a monolithic sleep_for that
    // ignored the CancelToken — with a seconds-scale backoff cap, a SIGTERM
    // drain arriving mid-backoff blocked wait() for the full backoff, far
    // past the grace period. The backoff now sleeps in token-polling slices.
    serve::ServerConfig config;
    config.max_retries = 3;
    config.retry_backoff_ms = 60000;  // one backoff alone dwarfs the test budget
    config.retry_backoff_cap_ms = 60000;
    config.drain_seconds = 0.2;
    start(config);

    failpoint::Config fault;
    fault.mode = failpoint::Mode::inject_throw;  // fires forever: always retrying
    failpoint::configure("serve.job", fault);

    std::optional<JsonValue> response;
    std::thread submitter([&] {
        serve::Client client;
        ASSERT_TRUE(client.connect_wait(socket_path_, 5.0));
        response = client.request(submit_line(tiny_spec()));
    });
    // Wait until the job has failed its first attempt and entered the
    // backoff (retries is counted just before the backoff).
    EXPECT_TRUE(wait_until([&] { return server_->counters().retries >= 1; }));

    const auto drain_start = std::chrono::steady_clock::now();
    server_->request_drain();
    server_->wait();
    const double drain_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - drain_start)
            .count();
    submitter.join();
    failpoint::clear("serve.job");

    // Well within the grace period + slack; without the fix this is >= 60 s.
    EXPECT_LT(drain_seconds, 10.0);
    // The pending client still got a typed answer, not a dropped socket.
    ASSERT_TRUE(response.has_value());
    EXPECT_FALSE(member(*response, "ok").as_bool());
    server_.reset();
}

TEST_F(ServeTest, DrainAnswersClientsStillInTheListenBacklog) {
    // Regression test: the drain closed the listener with connected but
    // not yet accepted clients in its backlog, and those clients read EOF.
    // The acceptor now takes the backlog first, so they get a typed
    // `rejected:draining`.
    serve::ServerConfig config;
    config.drain_seconds = 1.0;  // the grace the backlogged client answers in
    start(config);

    // Stall the acceptor inside its next accept: `first` is taken and the
    // acceptor sleeps, so `second` waits in the listen backlog across the
    // drain request.
    failpoint::Config stall;
    stall.mode = failpoint::Mode::delay;
    stall.delay_ms = 1500;
    stall.max_hits = 1;
    failpoint::configure("serve.accept", stall);
    serve::Client first = connect();
    serve::Client second = connect();
    std::optional<JsonValue> backlog_response;
    std::thread sender([&] { backlog_response = second.request(submit_line(tiny_spec())); });

    server_->request_drain();
    server_->wait();
    sender.join();
    failpoint::clear("serve.accept");

    ASSERT_TRUE(backlog_response.has_value());
    EXPECT_EQ(member(*backlog_response, "status").as_string(), "rejected");
    EXPECT_EQ(member(*backlog_response, "reason").as_string(), "draining");
    server_.reset();
}

TEST_F(ServeTest, StatsReportConsistentCacheSnapshotAndServerCounters) {
    start();
    serve::Client client = connect();
    ASSERT_TRUE(client.request(submit_line(tiny_spec())).has_value());
    ASSERT_TRUE(client.request(submit_line(tiny_spec())).has_value());  // cache hit

    const auto response = client.request(R"({"op":"stats"})");
    ASSERT_TRUE(response.has_value());
    const JsonValue& cache = member(*response, "cache");
    // Two identical submits: at least one build and at least one hit, and
    // hit_rate is consistent with the hits/builds in the SAME snapshot.
    EXPECT_GE(member(cache, "builds").as_uint64() + member(cache, "hits").as_uint64(), 2u);
    const double rate = member(cache, "hit_rate").as_double();
    EXPECT_GE(rate, 0.0);
    EXPECT_LE(rate, 1.0);

    const JsonValue& server = member(*response, "server");
    EXPECT_EQ(member(server, "completed").as_uint64(), 2u);
    EXPECT_EQ(member(server, "submitted").as_uint64(), 2u);
    EXPECT_EQ(member(server, "queue_capacity").as_uint64(), 16u);
    EXPECT_FALSE(member(server, "draining").as_bool());
}

TEST_F(ServeTest, AcceptFailpointDropsTheConnectionBeforeAnyRead) {
    start();
    failpoint::Config fault;
    fault.mode = failpoint::Mode::inject_throw;
    fault.max_hits = 1;
    failpoint::configure("serve.accept", fault);

    // The dropped connection: connect() succeeds at the OS level, the first
    // request observes EOF. Transient by contract — the next connection
    // works.
    serve::Client dropped;
    ASSERT_TRUE(dropped.connect_wait(socket_path_, 5.0));
    EXPECT_FALSE(dropped.request(R"({"op":"ping"})").has_value());

    serve::Client retry = connect();
    const auto response = retry.request(R"({"op":"ping"})");
    ASSERT_TRUE(response.has_value());
    EXPECT_TRUE(member(*response, "ok").as_bool());
}

TEST_F(ServeTest, MalformedRequestsAnswerTypedErrorsNotDisconnects) {
    start();
    serve::Client client = connect();
    for (const char* bad : {
             "this is not json",
             R"("a string, not an object")",
             R"({"no_op":true})",
             R"({"op":"submit"})",                       // missing spec
             R"({"op":"submit","spec":{"schema":"x"}})",  // wrong schema
             R"({"op":"get"})",                           // missing name
             R"({"op":"warp"})",                          // unknown op
         }) {
        SCOPED_TRACE(bad);
        const auto response = client.request(bad);
        ASSERT_TRUE(response.has_value());  // still answered, same connection
        EXPECT_FALSE(member(*response, "ok").as_bool());
    }
    // The connection survives the whole gauntlet.
    const auto ping = client.request(R"({"op":"ping"})");
    ASSERT_TRUE(ping.has_value());
    EXPECT_TRUE(member(*ping, "ok").as_bool());
}

}  // namespace
}  // namespace nb
