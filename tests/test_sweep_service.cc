/**
 * @file
 * Tests for the sweep service (harness/sweep_service.h): request
 * parsing/validation, the framed socket protocol, byte-identity of
 * served documents against the in-process runner, and the robustness
 * contract — malformed requests get structured errors (never a crash),
 * a zero-length queue exercises backpressure, deadlines are enforced,
 * and beginShutdown() drains admitted work before the threads exit.
 *
 * Sockets are Unix-domain paths in the working directory (kept short:
 * sun_path is 108 bytes). The experiment used over the wire is
 * fig02_unallocated_regs — pure occupancy arithmetic, no simulation —
 * so the protocol tests stay fast.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <system_error>
#include <thread>
#include <vector>

#include "common/json_parse.h"
#include "common/socket.h"
#include "harness/experiment.h"
#include "harness/sweep_service.h"

namespace caba {
namespace {

/**
 * A directory of this process's own for its sockets, removed at exit.
 * ctest runs each case in a process of its own, so a counter alone
 * would give concurrent cases the same socket path, and a listener
 * unlinks whatever already sits at its path.
 */
class SocketDir
{
  public:
    SocketDir()
    {
        std::string tmpl =
            (std::filesystem::temp_directory_path() / "caba_sweepd_XXXXXX")
                .string();
        if (::mkdtemp(tmpl.data()) != nullptr)
            path_ = tmpl;
    }

    ~SocketDir()
    {
        std::error_code ec;
        if (!path_.empty())
            std::filesystem::remove_all(path_, ec);
    }

    SocketDir(const SocketDir &) = delete;
    SocketDir &operator=(const SocketDir &) = delete;

    static const std::string &
    path()
    {
        static const SocketDir dir;
        EXPECT_FALSE(dir.path_.empty()) << "mkdtemp failed";
        return dir.path_;
    }

  private:
    std::string path_;
};

/** A running service on its own UDS path, torn down with the test. */
class ServiceFixture
{
  public:
    explicit ServiceFixture(SweepServiceConfig cfg = {})
    {
        cfg.address = SocketDir::path() + "/test_sweepd_" +
                      std::to_string(next_id_++) + ".sock";
        address_ = cfg.address;
        service_ = std::make_unique<SweepService>(cfg);
        std::string error;
        started_ = service_->start(&error);
        EXPECT_TRUE(started_) << error;
    }

    ~ServiceFixture()
    {
        service_->shutdown();
        std::remove(address_.c_str());
    }

    SweepReply
    submit(const std::string &request_json)
    {
        SweepReply reply;
        std::string error;
        EXPECT_TRUE(submitSweepRequest(address_, request_json, &reply,
                                       &error))
            << error;
        return reply;
    }

    const std::string &address() const { return address_; }
    SweepService &service() { return *service_; }
    bool started() const { return started_; }

  private:
    static int next_id_;
    std::string address_;
    std::unique_ptr<SweepService> service_;
    bool started_ = false;
};

int ServiceFixture::next_id_ = 0;

std::string
fig02Request()
{
    SweepRequestSpec spec;
    spec.experiment = "fig02_unallocated_regs";
    return buildSweepRequestJson(spec);
}

// --- Request parsing / validation (no server) ------------------------------

TEST(SweepRequestParseTest, ExperimentFormRoundTripsThroughBuilder)
{
    SweepRequestSpec spec;
    spec.experiment = "fig02_unallocated_regs";
    spec.scale = 0.5;
    spec.jobs = 2;
    spec.timeout_ms = 1234;
    SweepRequest req;
    std::string code;
    std::string message;
    ASSERT_TRUE(parseSweepRequest(buildSweepRequestJson(spec), &req, &code,
                                  &message))
        << code << ": " << message;
    EXPECT_EQ(req.experiment, "fig02_unallocated_regs");
    EXPECT_DOUBLE_EQ(req.opts.scale, 0.5);
    EXPECT_EQ(req.opts.jobs, 2);
    EXPECT_EQ(req.timeout_ms, 1234);
}

TEST(SweepRequestParseTest, CellListFormValidatesNames)
{
    SweepRequestSpec spec;
    spec.apps = {"PVC", "bfs"};
    spec.designs = {"Base", "CABA-BDI"};
    SweepRequest req;
    std::string code;
    std::string message;
    ASSERT_TRUE(parseSweepRequest(buildSweepRequestJson(spec), &req, &code,
                                  &message))
        << code << ": " << message;
    EXPECT_EQ(req.apps.size(), 2u);
    EXPECT_EQ(req.designs.size(), 2u);
}

TEST(SweepRequestParseTest, StructuredErrorCodes)
{
    SweepRequest req;
    std::string code;
    std::string message;

    EXPECT_FALSE(parseSweepRequest("{not json", &req, &code, &message));
    EXPECT_EQ(code, "bad_request");

    EXPECT_FALSE(parseSweepRequest("[1,2,3]", &req, &code, &message));
    EXPECT_EQ(code, "bad_request");

    const std::string schema =
        std::string("\"schema\":\"") + kSweepRequestSchema + "\"";
    EXPECT_FALSE(parseSweepRequest(
        "{" + schema + ",\"experiment\":\"no_such_thing\"}", &req, &code,
        &message));
    EXPECT_EQ(code, "unknown_experiment");

    EXPECT_FALSE(parseSweepRequest(
        "{" + schema +
            ",\"apps\":[\"no_such_app\"],\"designs\":[\"Base\"]}",
        &req, &code, &message));
    EXPECT_EQ(code, "unknown_app");

    EXPECT_FALSE(parseSweepRequest(
        "{" + schema + ",\"apps\":[\"PVC\"],\"designs\":[\"Warp9\"]}",
        &req, &code, &message));
    EXPECT_EQ(code, "unknown_design");

    // Wrong/missing schema, unknown fields, both forms at once.
    EXPECT_FALSE(parseSweepRequest("{\"experiment\":\"x\"}", &req, &code,
                                   &message));
    EXPECT_EQ(code, "bad_request");
    EXPECT_FALSE(parseSweepRequest(
        "{" + schema + ",\"experiment\":\"x\",\"apps\":[\"PVC\"]}", &req,
        &code, &message));
    EXPECT_FALSE(parseSweepRequest(
        "{" + schema + ",\"experiment\":\"x\",\"surprise\":1}", &req,
        &code, &message));
    EXPECT_NE(message.find("surprise"), std::string::npos);
}

TEST(SweepRequestParseTest, OptionValidationMatchesTheCli)
{
    SweepRequest req;
    std::string code;
    std::string message;
    const std::string prefix =
        std::string("{\"schema\":\"") + kSweepRequestSchema +
        "\",\"experiment\":\"fig02_unallocated_regs\",\"options\":";

    EXPECT_FALSE(parseSweepRequest(prefix + "{\"scale\":0}}", &req, &code,
                                   &message));
    EXPECT_FALSE(parseSweepRequest(prefix + "{\"scale\":-2.5}}", &req,
                                   &code, &message));
    EXPECT_FALSE(parseSweepRequest(prefix + "{\"jobs\":1.5}}", &req, &code,
                                   &message));
    EXPECT_FALSE(parseSweepRequest(prefix + "{\"jobs\":3000000000}}", &req,
                                   &code, &message));
    EXPECT_FALSE(parseSweepRequest(prefix + "{\"speed\":9}}", &req, &code,
                                   &message));
    EXPECT_TRUE(parseSweepRequest(prefix +
                                      "{\"scale\":0.25,\"jobs\":1,"
                                      "\"warps\":12}}",
                                  &req, &code, &message))
        << code << ": " << message;
    EXPECT_EQ(req.opts.max_warps, 12);
}

TEST(SweepServableDesignsTest, UniqueNamesIncludingBaseAndCaba)
{
    const std::vector<DesignConfig> &designs = servableDesigns();
    std::vector<std::string> names;
    for (const DesignConfig &d : designs)
        names.push_back(d.name);
    std::vector<std::string> sorted = names;
    std::sort(sorted.begin(), sorted.end());
    EXPECT_EQ(std::unique(sorted.begin(), sorted.end()), sorted.end())
        << "design names must be unique";
    EXPECT_NE(std::find(names.begin(), names.end(), "Base"), names.end());
    EXPECT_NE(std::find(names.begin(), names.end(), "CABA-BDI"),
              names.end());
}

// --- Socket-level protocol -------------------------------------------------

TEST(SweepServiceTest, ServesExperimentByteIdenticalToInProcessRun)
{
    ServiceFixture fx;
    ASSERT_TRUE(fx.started());

    const SweepReply reply = fx.submit(fig02Request());
    ASSERT_TRUE(reply.ok) << reply.code << ": " << reply.message;
    EXPECT_FALSE(reply.payload.empty());

    const Experiment *e =
        ExperimentRegistry::instance().find("fig02_unallocated_regs");
    ASSERT_NE(e, nullptr);
    const std::string direct = runExperimentCaptured(*e, {});
    EXPECT_EQ(reply.payload, direct)
        << "served document must be byte-identical to the in-process run";

    // The response header is well-formed caba-sweep-resp-v1.
    json::Value header;
    ASSERT_TRUE(json::parse(reply.header_json, &header, nullptr));
    const json::Value *schema = header.find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->string, kSweepResponseSchema);
}

TEST(SweepServiceTest, MalformedRequestsGetErrorsAndTheServerSurvives)
{
    ServiceFixture fx;
    ASSERT_TRUE(fx.started());

    const SweepReply bad = fx.submit("this is not json at all");
    EXPECT_FALSE(bad.ok);
    EXPECT_EQ(bad.code, "bad_request");
    EXPECT_FALSE(bad.message.empty());

    const SweepReply unknown = fx.submit(
        std::string("{\"schema\":\"") + kSweepRequestSchema +
        "\",\"experiment\":\"fig99_imaginary\"}");
    EXPECT_FALSE(unknown.ok);
    EXPECT_EQ(unknown.code, "unknown_experiment");

    // A frame of the wrong type is also answered, not ignored.
    net::Address addr;
    std::string error;
    ASSERT_TRUE(net::parseAddress(fx.address(), &addr, &error)) << error;
    const int fd = net::connectTo(addr, &error);
    ASSERT_GE(fd, 0) << error;
    ASSERT_TRUE(net::writeFrame(fd, 99, "whatever"));
    std::uint32_t type = 0;
    std::string payload;
    ASSERT_TRUE(net::readFrame(fd, &type, &payload, 1 << 20, &error))
        << error;
    EXPECT_EQ(type, static_cast<std::uint32_t>(kFrameResponseHeader));
    EXPECT_NE(payload.find("bad_request"), std::string::npos);
    net::closeFd(fd);

    // After all that abuse the daemon still serves real requests.
    const SweepReply good = fx.submit(fig02Request());
    EXPECT_TRUE(good.ok) << good.code << ": " << good.message;
    EXPECT_TRUE(fx.service().running());
    EXPECT_GE(fx.service().stats().get("requests_bad"), 3u);
    // The server counts a completion only after it has written the
    // reply this client already holds, so give it up to 10 s to do so.
    for (int waited_ms = 0;
         fx.service().stats().get("requests_completed") == 0 &&
         waited_ms < 10000;
         ++waited_ms)
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    EXPECT_GE(fx.service().stats().get("requests_completed"), 1u);
}

TEST(SweepServiceTest, ZeroLengthQueueRejectsWithQueueFull)
{
    SweepServiceConfig cfg;
    cfg.max_queue = 0;
    ServiceFixture fx(cfg);
    ASSERT_TRUE(fx.started());

    const SweepReply reply = fx.submit(fig02Request());
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.code, "queue_full");
    EXPECT_EQ(fx.service().stats().get("requests_queue_full"), 1u);
}

TEST(SweepServiceTest, ExpiredDeadlineIsReportedNotServed)
{
    SweepServiceConfig cfg;
    cfg.test_dequeue_delay_ms = 50; // every request waits 50ms pre-run
    ServiceFixture fx(cfg);
    ASSERT_TRUE(fx.started());

    SweepRequestSpec spec;
    spec.experiment = "fig02_unallocated_regs";
    spec.timeout_ms = 1;
    const SweepReply reply = fx.submit(buildSweepRequestJson(spec));
    EXPECT_FALSE(reply.ok);
    EXPECT_EQ(reply.code, "deadline_exceeded");
    EXPECT_EQ(fx.service().stats().get("requests_deadline"), 1u);
}

TEST(SweepServiceTest, BeginShutdownDrainsAdmittedRequests)
{
    SweepServiceConfig cfg;
    cfg.test_dequeue_delay_ms = 100; // hold execution past beginShutdown
    auto fx = std::make_unique<ServiceFixture>(cfg);
    ASSERT_TRUE(fx->started());

    SweepReply reply;
    std::string error;
    bool transported = false;
    const std::string address = fx->address();
    std::thread client([&] {
        transported =
            submitSweepRequest(address, fig02Request(), &reply, &error);
    });
    // Let the request be admitted (acceptor is fast; the executor is
    // still in its test delay), then start draining.
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    fx->service().beginShutdown();
    fx->service().shutdown();
    client.join();

    ASSERT_TRUE(transported) << error;
    EXPECT_TRUE(reply.ok) << reply.code << ": " << reply.message
                          << " (admitted work must drain, not drop)";
    EXPECT_FALSE(fx->service().running());

    // With the daemon gone, a new submission is a transport error.
    fx.reset();
    SweepReply after;
    EXPECT_FALSE(submitSweepRequest(address, fig02Request(), &after,
                                    &error));
}

TEST(SweepServiceTest, WarmCellRequestIsServedWithoutSimulating)
{
    ServiceFixture fx;
    ASSERT_TRUE(fx.started());

    SweepRequestSpec spec;
    spec.apps = {"PVC"};
    spec.designs = {"Base"};
    spec.scale = 0.25;
    const std::string request = buildSweepRequestJson(spec);

    const SweepReply cold = fx.submit(request);
    ASSERT_TRUE(cold.ok) << cold.code << ": " << cold.message;

    const SweepReply warm = fx.submit(request);
    ASSERT_TRUE(warm.ok) << warm.code << ": " << warm.message;
    EXPECT_EQ(warm.simulations, 0u)
        << "second identical request must be served from the cell cache";
    EXPECT_GE(warm.cache_served, 1u);
    EXPECT_EQ(warm.payload, cold.payload);

    json::Value doc;
    ASSERT_TRUE(json::parse(warm.payload, &doc, nullptr));
    const json::Value *bench = doc.find("bench");
    ASSERT_NE(bench, nullptr);
    EXPECT_EQ(bench->string, "custom_cells");
    const json::Value *cells = doc.find("cells");
    ASSERT_NE(cells, nullptr);
    EXPECT_EQ(cells->array.size(), 1u);
}

} // namespace
} // namespace caba
