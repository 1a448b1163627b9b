// Socket transport contract (DESIGN.md §15), all over real loopback TCP:
// deadline-bounded connect/accept/recv, the capped backoff curve, framed
// send/recv, scheduler discovery, and the SocketServerNetwork /
// SocketClientNetwork pair's registration, liveness, reconnect, and shutdown
// behaviour. Everything runs in-process (multiple threads, one address
// space); the cross-process path is exercised by scripts/multiproc_identity.sh
// and scripts/proc_chaos.sh against the deployment binaries.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <thread>

#include "comm/frame.h"
#include "comm/scheduler.h"
#include "comm/socket_network.h"
#include "comm/transport.h"

using namespace fedcleanse;
using namespace fedcleanse::comm;
using namespace std::chrono_literals;

namespace {

// Small timeouts so failure paths resolve in milliseconds, not test-minutes.
TransportConfig fast_config() {
  TransportConfig c;
  c.connect_timeout_ms = 2000;
  c.accept_timeout_ms = 50;
  c.max_connect_retries = 3;
  c.backoff_base_ms = 10;
  c.backoff_cap_ms = 40;
  c.heartbeat_interval_ms = 50;
  c.heartbeat_timeout_ms = 1000;
  return c;
}

Message tagged(MessageType type, std::uint32_t round,
               std::vector<std::uint8_t> payload = {}) {
  Message m;
  m.type = type;
  m.round = round;
  m.sender = -1;
  m.payload = std::move(payload);
  m.stamp();
  return m;
}

// Spin until pred() holds or the deadline passes; returns the final read.
template <typename Pred>
bool eventually(Pred pred, std::chrono::milliseconds timeout = 5s) {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  while (!pred()) {
    if (std::chrono::steady_clock::now() > deadline) return false;
    std::this_thread::sleep_for(5ms);
  }
  return true;
}

}  // namespace

// --- config + backoff -------------------------------------------------------

TEST(TransportConfigTest, ValidateRejectsNonsense) {
  TransportConfig c;
  c.validate();  // defaults are sane
  c.connect_timeout_ms = 0;
  EXPECT_THROW(c.validate(), ConfigError);
  c = TransportConfig{};
  c.backoff_cap_ms = c.backoff_base_ms - 1;
  EXPECT_THROW(c.validate(), ConfigError);
  c = TransportConfig{};
  c.heartbeat_timeout_ms = c.heartbeat_interval_ms - 1;
  EXPECT_THROW(c.validate(), ConfigError);
  c = TransportConfig{};
  c.max_frame_bytes = 8;
  EXPECT_THROW(c.validate(), ConfigError);
}

TEST(TransportConfigTest, BackoffCurveIsCappedExponential) {
  TransportConfig c;
  c.backoff_base_ms = 50;
  c.backoff_cap_ms = 2000;
  EXPECT_EQ(backoff_delay_ms(c, 0), 50);
  EXPECT_EQ(backoff_delay_ms(c, 1), 100);
  EXPECT_EQ(backoff_delay_ms(c, 2), 200);
  EXPECT_EQ(backoff_delay_ms(c, 5), 1600);
  EXPECT_EQ(backoff_delay_ms(c, 6), 2000);   // capped
  EXPECT_EQ(backoff_delay_ms(c, 63), 2000);  // shift never overflows
  EXPECT_EQ(backoff_delay_ms(c, -4), 50);    // negative attempt clamps to 0
}

TEST(TransportConfigTest, JitteredBackoffIsDeterministicAndBounded) {
  TransportConfig c;
  c.backoff_base_ms = 50;
  c.backoff_cap_ms = 2000;
  c.jitter_seed = 42;
  // Pinned draws: the jitter is a pure function of (seed, node, attempt), so
  // a reconnect schedule is reproducible across runs and in postmortems.
  EXPECT_EQ(backoff_delay_jittered_ms(c, 0, 0), 34);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 0, 1), 81);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 0, 2), 142);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 1, 0), 26);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 1, 1), 90);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 7, 3), 328);
  EXPECT_EQ(backoff_delay_jittered_ms(c, 0, 6), 1838);
  // Every draw stays within [ceil(d/2), d] of the deterministic curve — the
  // cap still bounds worst-case reconnect latency.
  for (int node = 0; node < 16; ++node) {
    for (int attempt = 0; attempt < 10; ++attempt) {
      const int d = backoff_delay_ms(c, attempt);
      const int j = backoff_delay_jittered_ms(c, node, attempt);
      EXPECT_GE(j, (d + 1) / 2) << "node " << node << " attempt " << attempt;
      EXPECT_LE(j, d) << "node " << node << " attempt " << attempt;
    }
  }
  // Distinct node ids desynchronize — the point of the jitter is that a
  // server restart does not make the whole fleet reconnect in lockstep.
  bool diverged = false;
  for (int attempt = 0; attempt < 10 && !diverged; ++attempt) {
    diverged = backoff_delay_jittered_ms(c, 2, attempt) !=
               backoff_delay_jittered_ms(c, 3, attempt);
  }
  EXPECT_TRUE(diverged);
}

// --- raw sockets ------------------------------------------------------------

TEST(SocketLoopback, SendAllRecvSomeRoundTrip) {
  Listener listener("127.0.0.1", 0);
  ASSERT_NE(listener.port(), 0);  // ephemeral bind reports the real port
  Socket client = connect_to("127.0.0.1", listener.port(), 2000);
  auto server = listener.accept_for(2000);
  ASSERT_TRUE(server.has_value());

  const std::uint8_t out[] = {1, 2, 3, 4, 5};
  client.send_all(out, sizeof(out));
  std::uint8_t in[16] = {};
  std::size_t total = 0;
  while (total < sizeof(out)) {
    std::size_t n = 0;
    ASSERT_EQ(server->recv_some(in + total, sizeof(in) - total, 2000, &n),
              Socket::RecvStatus::kData);
    total += n;
  }
  EXPECT_EQ(std::memcmp(in, out, sizeof(out)), 0);
}

TEST(SocketLoopback, RecvTimesOutThenSeesEof) {
  Listener listener("127.0.0.1", 0);
  Socket client = connect_to("127.0.0.1", listener.port(), 2000);
  auto server = listener.accept_for(2000);
  ASSERT_TRUE(server.has_value());

  std::uint8_t buf[8];
  std::size_t n = 0;
  EXPECT_EQ(server->recv_some(buf, sizeof(buf), 30, &n), Socket::RecvStatus::kTimeout);
  client.close();
  EXPECT_EQ(server->recv_some(buf, sizeof(buf), 2000, &n), Socket::RecvStatus::kEof);
}

TEST(SocketLoopback, ConnectToDeadPortThrowsWithErrno) {
  // Bind-then-close yields a port that is almost certainly unbound now.
  std::uint16_t dead_port;
  {
    Listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  try {
    (void)connect_to("127.0.0.1", dead_port, 500);
    FAIL() << "connect to a closed port should throw";
  } catch (const TransportError& e) {
    EXPECT_NE(e.sys_errno(), 0) << e.what();  // errno captured at the syscall
  }
}

TEST(SocketLoopback, ConnectWithBackoffHonoursCancellation) {
  std::uint16_t dead_port;
  {
    Listener probe("127.0.0.1", 0);
    dead_port = probe.port();
  }
  TransportConfig c = fast_config();
  c.max_connect_retries = 1000;  // cancellation, not exhaustion, must end it
  const auto start = std::chrono::steady_clock::now();
  EXPECT_THROW(
      (void)connect_with_backoff("127.0.0.1", dead_port, c, [] { return true; }),
      TransportError);
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);
}

// --- framing over a live socket ---------------------------------------------

TEST(FrameLoopback, SendFrameRecvFrameRoundTrip) {
  Listener listener("127.0.0.1", 0);
  Socket client = connect_to("127.0.0.1", listener.port(), 2000);
  auto server = listener.accept_for(2000);
  ASSERT_TRUE(server.has_value());

  send_frame(client, tagged(MessageType::kModelBroadcast, 4, {7, 8, 9}));
  FrameDecoder dec;
  auto m = recv_frame(*server, dec, 2000);
  ASSERT_TRUE(m.has_value());
  EXPECT_EQ(m->type, MessageType::kModelBroadcast);
  EXPECT_EQ(m->round, 4u);
  EXPECT_EQ(m->payload, (std::vector<std::uint8_t>{7, 8, 9}));
  EXPECT_TRUE(m->checksum_ok());

  // Silence → nullopt (timeout); close → TransportError (EOF mid-stream).
  EXPECT_FALSE(recv_frame(*server, dec, 30).has_value());
  client.close();
  EXPECT_THROW((void)recv_frame(*server, dec, 2000), TransportError);
}

// --- scheduler discovery ----------------------------------------------------

TEST(SchedulerTest, ClientsDiscoverTheServerThroughRegistration) {
  const TransportConfig c = fast_config();
  Scheduler scheduler(c);
  ASSERT_NE(scheduler.port(), 0);

  // A client asking before any server registered gets an accepted ack that
  // carries no address — it must poll again later.
  RegisterInfo client_info;
  client_info.role = NodeRole::kClient;
  client_info.node_id = 0;
  auto ack = scheduler_register_once("127.0.0.1", scheduler.port(), client_info, c);
  EXPECT_TRUE(ack.accepted);
  EXPECT_FALSE(ack.server_known);

  RegisterInfo server_info;
  server_info.role = NodeRole::kServer;
  server_info.port = 45678;
  ack = scheduler_register_once("127.0.0.1", scheduler.port(), server_info, c);
  EXPECT_TRUE(ack.accepted);

  ack = scheduler_register_once("127.0.0.1", scheduler.port(), client_info, c);
  EXPECT_TRUE(ack.server_known);
  EXPECT_EQ(ack.server_port, 45678);
  EXPECT_FALSE(ack.server_host.empty());
  EXPECT_TRUE(scheduler.server_known());
  EXPECT_EQ(scheduler.n_clients_seen(), 1);  // the same client id polled twice

  scheduler.stop();
}

TEST(SchedulerTest, DuplicateAndStaleGenerationRegistrationsKeepRosterClean) {
  const TransportConfig c = fast_config();
  Scheduler scheduler(c);

  RegisterInfo info;
  info.role = NodeRole::kClient;
  info.node_id = 3;
  info.generation = 5;
  EXPECT_TRUE(scheduler_register_once("127.0.0.1", scheduler.port(), info, c).accepted);
  // Same node again at the same generation (a duplicate retry) and then at a
  // *stale* generation (a delayed frame from before its reconnect): discovery
  // is idempotent, so both are accepted and neither inflates the roster.
  EXPECT_TRUE(scheduler_register_once("127.0.0.1", scheduler.port(), info, c).accepted);
  info.generation = 2;
  EXPECT_TRUE(scheduler_register_once("127.0.0.1", scheduler.port(), info, c).accepted);
  EXPECT_EQ(scheduler.n_clients_seen(), 1);

  scheduler.stop();
}

TEST(SchedulerTest, ServerReregistrationSupersedesTheOldAddress) {
  const TransportConfig c = fast_config();
  Scheduler scheduler(c);

  RegisterInfo server_info;
  server_info.role = NodeRole::kServer;
  server_info.port = 1111;
  EXPECT_TRUE(
      scheduler_register_once("127.0.0.1", scheduler.port(), server_info, c).accepted);
  // A restarted server comes back on a fresh ephemeral data port and
  // re-registers at a bumped generation; clients discovering afterwards must
  // get the new address, never the stale one.
  server_info.port = 2222;
  server_info.generation = 1;
  EXPECT_TRUE(
      scheduler_register_once("127.0.0.1", scheduler.port(), server_info, c).accepted);

  RegisterInfo client_info;
  client_info.role = NodeRole::kClient;
  client_info.node_id = 0;
  const auto ack = scheduler_register_once("127.0.0.1", scheduler.port(), client_info, c);
  EXPECT_TRUE(ack.server_known);
  EXPECT_EQ(ack.server_port, 2222);

  scheduler.stop();
}

TEST(SchedulerTest, RegistrationAfterShutdownIsRejected) {
  const TransportConfig c = fast_config();
  Scheduler scheduler(c);

  // The server announces end-of-run...
  Socket raw = connect_to("127.0.0.1", scheduler.port(), 2000);
  send_frame(raw, tagged(MessageType::kShutdown, 0));
  // Each connection has its own handler thread: wait until the shutdown is
  // recorded, or the registration below can race ahead of it.
  scheduler.run_until_shutdown();
  // ...after which a late registration must be nacked, not recorded:
  // accepting it would strand a node waiting on a run that is already over.
  RegisterInfo info;
  info.role = NodeRole::kClient;
  info.node_id = 0;
  ASSERT_TRUE(eventually([&] {
    return !scheduler_register_once("127.0.0.1", scheduler.port(), info, c).accepted;
  }));
  EXPECT_EQ(scheduler.n_clients_seen(), 0);

  scheduler.stop();
}

TEST(SchedulerTest, RegistryRoundTripRestoresTheRoster) {
  const std::string path = ::testing::TempDir() + "fc_registry_test.txt";
  std::remove(path.c_str());
  const TransportConfig c = fast_config();
  {
    Scheduler scheduler(c);
    scheduler.enable_registry(path);
    RegisterInfo info;
    info.role = NodeRole::kClient;
    for (int id : {0, 1, 2, 1}) {  // one duplicate
      info.node_id = id;
      EXPECT_TRUE(
          scheduler_register_once("127.0.0.1", scheduler.port(), info, c).accepted);
    }
    RegisterInfo server_info;
    server_info.role = NodeRole::kServer;
    server_info.port = 1234;
    EXPECT_TRUE(
        scheduler_register_once("127.0.0.1", scheduler.port(), server_info, c).accepted);
    scheduler.stop();
  }

  // A restarted scheduler rebuilds the distinct-client roster from the file;
  // the pre-crash server address is deliberately dropped as stale (the live
  // server's session re-registers it within one heartbeat interval).
  Scheduler restarted(c);
  EXPECT_EQ(restarted.load_registry(path), 3);
  EXPECT_EQ(restarted.n_clients_seen(), 3);
  EXPECT_FALSE(restarted.server_known());
  restarted.stop();
  std::remove(path.c_str());
}

TEST(SchedulerSessionTest, SurvivesASchedulerRestart) {
  TransportConfig c = fast_config();
  c.jitter_seed = 7;
  auto scheduler = std::make_unique<Scheduler>(c);
  const std::uint16_t port = scheduler->port();

  RegisterInfo info;
  info.role = NodeRole::kServer;
  info.port = 4242;
  SchedulerSession session("127.0.0.1", port, info, c);
  EXPECT_TRUE(scheduler->server_known());

  // Kill the scheduler and bring a fresh one up on the same port: the
  // session's heartbeat loop must reconnect and re-register on its own, so
  // the new incarnation re-learns the server without the run stopping.
  scheduler.reset();
  Scheduler restarted(c, "127.0.0.1", port);
  EXPECT_TRUE(eventually([&] { return restarted.server_known(); }, 10s));

  session.notify_shutdown();
  restarted.stop();
}

// --- the full network pair --------------------------------------------------

namespace {

// Scheduler + server network + helper to spawn client networks against them.
struct Deployment {
  TransportConfig config = fast_config();
  Scheduler scheduler{config};
  SocketServerNetwork server{2, config};
  std::unique_ptr<SchedulerSession> session;

  Deployment() {
    RegisterInfo info;
    info.role = NodeRole::kServer;
    info.port = server.port();
    session = std::make_unique<SchedulerSession>("127.0.0.1", scheduler.port(), info,
                                                 config);
  }

  std::unique_ptr<SocketClientNetwork> client(int id) {
    return std::make_unique<SocketClientNetwork>(2, id, config, "127.0.0.1",
                                                 scheduler.port());
  }
};

}  // namespace

TEST(SocketNetworkPair, RegisterExchangeShutdown) {
  Deployment dep;
  auto c0 = dep.client(0);
  auto c1 = dep.client(1);
  ASSERT_TRUE(c0->wait_connected(5000));
  ASSERT_TRUE(c1->wait_connected(5000));
  ASSERT_TRUE(dep.server.wait_for_clients(2, 5000));
  EXPECT_EQ(dep.server.n_alive(), 2);

  // Server → client: a broadcast lands in the client's downlink channel.
  dep.server.send_to_client(0, tagged(MessageType::kModelBroadcast, 1, {42}));
  auto got = c0->client_recv(0);
  EXPECT_EQ(got.type, MessageType::kModelBroadcast);
  EXPECT_EQ(got.payload, (std::vector<std::uint8_t>{42}));

  // Client → server: the reply surfaces through recv_from_client_for.
  c0->send_to_server(0, tagged(MessageType::kModelUpdate, 1, {24}));
  auto reply = dep.server.recv_from_client_for(0, 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->type, MessageType::kModelUpdate);
  EXPECT_EQ(reply->payload, (std::vector<std::uint8_t>{24}));

  // End of run: both clients observe the shutdown broadcast.
  dep.server.broadcast_shutdown();
  EXPECT_TRUE(eventually([&] { return c0->shutdown_received(); }));
  EXPECT_TRUE(eventually([&] { return c1->shutdown_received(); }));
}

TEST(SocketNetworkPair, KilledClientIsDeclaredDeadAndShortCircuitsRecv) {
  Deployment dep;
  auto c0 = dep.client(0);
  auto c1 = dep.client(1);
  ASSERT_TRUE(c0->wait_connected(5000));
  ASSERT_TRUE(c1->wait_connected(5000));
  ASSERT_TRUE(dep.server.wait_for_clients(2, 5000));

  // Destroying the client network closes its socket — the same EOF a
  // SIGKILLed process produces. The server must notice without waiting for
  // a heartbeat timeout.
  c1.reset();
  EXPECT_TRUE(eventually([&] { return !dep.server.is_alive(1); }));

  // A dead client's collect slot resolves immediately, not after the full
  // deadline — that is what keeps degraded rounds fast.
  const auto start = std::chrono::steady_clock::now();
  EXPECT_FALSE(dep.server.recv_from_client_for(1, 10s).has_value());
  EXPECT_LT(std::chrono::steady_clock::now() - start, 2s);

  // The surviving client is unaffected.
  EXPECT_TRUE(dep.server.is_alive(0));
  dep.server.send_to_client(0, tagged(MessageType::kModelBroadcast, 2));
  EXPECT_EQ(c0->client_recv(0).round, 2u);
}

TEST(SocketNetworkPair, RestartedClientReregistersWithBumpedGeneration) {
  Deployment dep;
  auto c0 = dep.client(0);
  auto c1 = dep.client(1);
  ASSERT_TRUE(c0->wait_connected(5000));
  ASSERT_TRUE(c1->wait_connected(5000));
  ASSERT_TRUE(dep.server.wait_for_clients(2, 5000));

  c1.reset();  // "crash"
  ASSERT_TRUE(eventually([&] { return !dep.server.is_alive(1); }));

  c1 = dep.client(1);  // "restart": same id, fresh process state
  ASSERT_TRUE(c1->wait_connected(5000));
  ASSERT_TRUE(eventually([&] { return dep.server.is_alive(1); }));
  EXPECT_EQ(dep.server.n_alive(), 2);

  // The reestablished link carries traffic both ways.
  dep.server.send_to_client(1, tagged(MessageType::kModelBroadcast, 9));
  EXPECT_EQ(c1->client_recv(1).round, 9u);
  c1->send_to_server(1, tagged(MessageType::kModelUpdate, 9));
  auto reply = dep.server.recv_from_client_for(1, 5s);
  ASSERT_TRUE(reply.has_value());
  EXPECT_EQ(reply->round, 9u);
}

TEST(SocketNetworkPair, SilentClientDiesByHeartbeatTimeout) {
  TransportConfig c = fast_config();
  c.heartbeat_timeout_ms = 300;
  SocketServerNetwork server(1, c);

  // Hand-rolled registration with no heartbeat thread behind it: the monitor
  // must declare the client dead on staleness alone (a hung-but-connected
  // process, which EOF detection cannot see).
  Socket raw = connect_to("127.0.0.1", server.port(), 2000);
  RegisterInfo info;
  info.role = NodeRole::kClient;
  info.node_id = 0;
  send_frame(raw, tagged(MessageType::kRegister, 0, encode_register(info)));
  FrameDecoder dec;
  auto ack_msg = recv_frame(raw, dec, 2000);
  ASSERT_TRUE(ack_msg.has_value());
  ASSERT_EQ(ack_msg->type, MessageType::kRegisterAck);
  ASSERT_TRUE(decode_register_ack(ack_msg->payload).accepted);
  ASSERT_TRUE(server.wait_for_clients(1, 2000));

  EXPECT_TRUE(eventually([&] { return !server.is_alive(0); }, 3s));

  // Sends to the heartbeat-dead client are dropped, not fatal.
  server.send_to_client(0, tagged(MessageType::kModelBroadcast, 1));
}

TEST(SocketNetworkPair, RegistrationFromAFutureEpochIsRejected) {
  const TransportConfig c = fast_config();
  SocketServerNetwork server(1, c);

  // A client claiming a snapshot epoch the server never reached belongs to a
  // different failover generation — admitting it would mix timelines. The
  // nack carries the server's own epoch so the client can see how far off it
  // is (DESIGN.md §18).
  RegisterInfo info;
  info.role = NodeRole::kClient;
  info.node_id = 0;
  info.epoch = 5;
  {
    Socket raw = connect_to("127.0.0.1", server.port(), 2000);
    send_frame(raw, tagged(MessageType::kRegister, 0, encode_register(info)));
    FrameDecoder dec;
    auto ack_msg = recv_frame(raw, dec, 2000);
    ASSERT_TRUE(ack_msg.has_value());
    const auto ack = decode_register_ack(ack_msg->payload);
    EXPECT_FALSE(ack.accepted);
    EXPECT_EQ(ack.epoch, 0u);
  }
  EXPECT_EQ(server.n_alive(), 0);

  // Once the server has advanced past that epoch, the same registration
  // lands, and the ack advertises the server's current epoch.
  server.set_epoch(6);
  Socket raw = connect_to("127.0.0.1", server.port(), 2000);
  send_frame(raw, tagged(MessageType::kRegister, 0, encode_register(info)));
  FrameDecoder dec;
  auto ack_msg = recv_frame(raw, dec, 2000);
  ASSERT_TRUE(ack_msg.has_value());
  const auto ack = decode_register_ack(ack_msg->payload);
  EXPECT_TRUE(ack.accepted);
  EXPECT_EQ(ack.epoch, 6u);
  EXPECT_TRUE(server.wait_for_clients(1, 2000));
}

TEST(SocketNetworkPair, SendToServerThrowsWhileLinkIsDown) {
  // A client whose scheduler knows no server keeps retrying discovery in the
  // background; sending during that window is a typed, catchable failure.
  const TransportConfig c = fast_config();
  Scheduler scheduler(c);
  SocketClientNetwork client(1, 0, c, "127.0.0.1", scheduler.port());
  EXPECT_FALSE(client.wait_connected(100));
  EXPECT_THROW(client.send_to_server(0, tagged(MessageType::kModelUpdate, 0)),
               TransportError);
  scheduler.stop();
}
