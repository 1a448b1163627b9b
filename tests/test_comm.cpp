#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <thread>

#include "comm/network.h"

using namespace fedcleanse;
using namespace fedcleanse::comm;

namespace {

Message make_msg(MessageType type, std::vector<std::uint8_t> payload = {}) {
  Message m;
  m.type = type;
  m.round = 3;
  m.sender = -1;
  m.payload = std::move(payload);
  m.stamp();
  return m;
}

}  // namespace

TEST(Channel, FifoOrder) {
  Channel ch;
  ch.send(make_msg(MessageType::kModelBroadcast));
  ch.send(make_msg(MessageType::kRankRequest));
  EXPECT_EQ(ch.try_recv()->type, MessageType::kModelBroadcast);
  EXPECT_EQ(ch.try_recv()->type, MessageType::kRankRequest);
  EXPECT_FALSE(ch.try_recv().has_value());
}

TEST(Channel, CountsBytes) {
  Channel ch;
  const auto size = ch.send(make_msg(MessageType::kModelUpdate, {1, 2, 3, 4}));
  EXPECT_EQ(size, 4u + kMessageHeaderBytes);
  EXPECT_EQ(ch.bytes_sent(), 4u + kMessageHeaderBytes);
}

TEST(Channel, BlockingRecvAcrossThreads) {
  Channel ch;
  std::thread producer([&] { ch.send(make_msg(MessageType::kVoteReport)); });
  auto msg = ch.recv();
  EXPECT_EQ(msg.type, MessageType::kVoteReport);
  producer.join();
}

TEST(Network, RoutesPerClient) {
  Network net(3);
  net.send_to_client(1, make_msg(MessageType::kModelBroadcast));
  EXPECT_FALSE(net.client_try_recv(0).has_value());
  EXPECT_TRUE(net.client_try_recv(1).has_value());
  net.send_to_server(2, make_msg(MessageType::kModelUpdate));
  EXPECT_FALSE(net.try_recv_from_client(1).has_value());
  EXPECT_TRUE(net.try_recv_from_client(2).has_value());
}

TEST(Network, TrafficAccounting) {
  Network net(2);
  net.send_to_client(0, make_msg(MessageType::kModelBroadcast, {1, 2}));
  net.send_to_server(1, make_msg(MessageType::kModelUpdate, {1, 2, 3}));
  EXPECT_EQ(net.downlink_bytes(), 2u + kMessageHeaderBytes);
  EXPECT_EQ(net.uplink_bytes(), 3u + kMessageHeaderBytes);
  EXPECT_EQ(net.total_bytes(), 5u + 2 * kMessageHeaderBytes);
}

TEST(Network, RejectsBadClientId) {
  Network net(2);
  EXPECT_THROW(net.send_to_client(2, make_msg(MessageType::kModelBroadcast)), Error);
  EXPECT_THROW(net.send_to_client(-1, make_msg(MessageType::kModelBroadcast)), Error);
}

TEST(Codecs, FlatParamsRoundTrip) {
  std::vector<float> params{1.5f, -2.0f, 0.0f};
  EXPECT_EQ(decode_flat_params(encode_flat_params(params)), params);
}

TEST(Codecs, RanksRoundTrip) {
  std::vector<std::uint32_t> ranks{3, 1, 2};
  EXPECT_EQ(decode_ranks(encode_ranks(ranks)), ranks);
}

TEST(Codecs, VotesRoundTrip) {
  std::vector<std::uint8_t> votes{1, 0, 0, 1};
  EXPECT_EQ(decode_votes(encode_votes(votes)), votes);
}

TEST(Codecs, MasksRoundTrip) {
  std::vector<std::vector<std::uint8_t>> masks{{1, 0}, {}, {1, 1, 1}};
  EXPECT_EQ(decode_masks(encode_masks(masks)), masks);
}

TEST(Codecs, AccuracyRoundTrip) {
  EXPECT_DOUBLE_EQ(decode_accuracy(encode_accuracy(0.925)), 0.925);
}

TEST(Codecs, MalformedPayloadThrows) {
  std::vector<std::uint8_t> garbage{1, 2};
  EXPECT_THROW(decode_flat_params(garbage), SerializationError);
  EXPECT_THROW(decode_masks(garbage), SerializationError);
}

TEST(Codecs, QuantizedParamsRoundTripWithinHalfStep) {
  std::vector<float> params(1000);
  std::uint32_t state = 0x9E3779B9u;
  float maxabs = 0.0f;
  for (auto& p : params) {
    state = state * 1664525u + 1013904223u;
    p = (static_cast<float>(state >> 8) / 8388608.0f - 1.0f) * 0.05f;
    maxabs = std::max(maxabs, std::fabs(p));
  }
  const auto decoded = decode_flat_params_q8(encode_flat_params_q8(params));
  ASSERT_EQ(decoded.size(), params.size());
  // Symmetric int8: worst-case error is half a quantization step.
  const float step = maxabs / 127.0f;
  for (std::size_t i = 0; i < params.size(); ++i) {
    EXPECT_NEAR(decoded[i], params[i], 0.5f * step * 1.0001f) << i;
  }
}

TEST(Codecs, QuantizedParamsShrinkWire) {
  const std::vector<float> params(10000, 0.25f);
  const auto f32 = encode_flat_params(params);
  const auto q8 = encode_flat_params_q8(params);
  // 4 bytes/param down to 1 (plus the fixed scale+length overhead).
  EXPECT_GE(static_cast<double>(f32.size()) / static_cast<double>(q8.size()), 3.5);
}

TEST(Codecs, QuantizedParamsEmptyAndZeroSafe) {
  EXPECT_TRUE(decode_flat_params_q8(encode_flat_params_q8({})).empty());
  const std::vector<float> zeros(17, 0.0f);
  EXPECT_EQ(decode_flat_params_q8(encode_flat_params_q8(zeros)), zeros);
}

TEST(Codecs, QuantizedParamsRejectsBadScale) {
  auto payload = encode_flat_params_q8({1.0f, -1.0f});
  // Overwrite the leading f32 scale with NaN, then with zero.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(payload.data(), &nan, sizeof(nan));
  EXPECT_THROW(decode_flat_params_q8(payload), DecodeError);
  const float zero = 0.0f;
  std::memcpy(payload.data(), &zero, sizeof(zero));
  EXPECT_THROW(decode_flat_params_q8(payload), DecodeError);
}

// A diverged update has no int8 encoding: the sender refuses it with a typed
// error instead of shipping arbitrary codes.
TEST(Codecs, QuantizedParamsRefuseNonFinite) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  for (const float bad : {nan, inf, -inf}) {
    EXPECT_THROW(encode_flat_params_q8({0.5f, bad, -0.25f}), EncodeError) << bad;
  }
  EXPECT_NO_THROW(encode_flat_params_q8({0.5f, -0.25f}));
}

TEST(Codecs, QuantizedParamsTruncationFuzz) {
  const std::vector<float> params(64, 0.5f);
  const auto payload = encode_flat_params_q8(params);
  // Every proper prefix must throw, never crash or decode silently.
  for (std::size_t len = 0; len < payload.size(); ++len) {
    std::vector<std::uint8_t> cut(payload.begin(),
                                  payload.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_THROW(decode_flat_params_q8(cut), SerializationError) << "prefix " << len;
  }
  // Trailing garbage is as malformed as truncation.
  auto extended = payload;
  extended.push_back(0xAB);
  EXPECT_THROW(decode_flat_params_q8(extended), DecodeError);
}

TEST(Wire, EncodeIsExactlyWireSize) {
  // wire_size() and encode_message must agree byte for byte — the traffic
  // accounting is only honest if they share the same header definition.
  const auto m = make_msg(MessageType::kVoteReport, {9, 8, 7});
  const auto bytes = encode_message(m);
  EXPECT_EQ(bytes.size(), m.wire_size());
  EXPECT_EQ(bytes.size(), 3u + kMessageHeaderBytes);
}

TEST(Wire, MessageRoundTrip) {
  Message m = make_msg(MessageType::kRankReport, {1, 2, 3, 4, 5});
  m.round = 17;
  m.sender = 4;
  const auto back = decode_message(encode_message(m));
  EXPECT_EQ(back.type, m.type);
  EXPECT_EQ(back.round, m.round);
  EXPECT_EQ(back.sender, m.sender);
  EXPECT_EQ(back.payload, m.payload);
  EXPECT_TRUE(back.checksum_ok());
}

TEST(Wire, UnknownTypeByteThrows) {
  auto bytes = encode_message(make_msg(MessageType::kModelBroadcast, {1}));
  bytes[0] = 0;  // below the valid range
  EXPECT_THROW(decode_message(bytes), DecodeError);
  bytes[0] = 200;  // above it
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Wire, TruncatedMessageThrows) {
  const auto bytes = encode_message(make_msg(MessageType::kModelUpdate, {1, 2, 3, 4}));
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    std::vector<std::uint8_t> cut(bytes.begin(), bytes.begin() + static_cast<long>(len));
    EXPECT_THROW(decode_message(cut), DecodeError) << "prefix length " << len;
  }
}

TEST(Wire, ChecksumDetectsPayloadTampering) {
  Message m = make_msg(MessageType::kModelUpdate, {1, 2, 3, 4});
  EXPECT_TRUE(m.checksum_ok());
  m.payload[2] ^= 0x40;  // in-memory flip after stamping
  EXPECT_FALSE(m.checksum_ok());

  auto bytes = encode_message(make_msg(MessageType::kModelUpdate, {1, 2, 3, 4}));
  bytes.back() ^= 0x40;  // flip an encoded payload byte
  EXPECT_THROW(decode_message(bytes), DecodeError);
}

TEST(Wire, ParseMessageTypeValidatesRange) {
  for (std::uint8_t raw = 1; raw <= 18; ++raw) {
    ASSERT_TRUE(parse_message_type(raw).has_value()) << int(raw);
  }
  EXPECT_EQ(parse_message_type(17), MessageType::kRoundSync);
  EXPECT_EQ(parse_message_type(18), MessageType::kRoundSyncAck);
  EXPECT_FALSE(parse_message_type(0).has_value());
  EXPECT_FALSE(parse_message_type(19).has_value());
  EXPECT_FALSE(parse_message_type(255).has_value());
}

TEST(MessageNames, AllNamed) {
  for (auto t : {MessageType::kModelBroadcast, MessageType::kModelUpdate,
                 MessageType::kRankRequest, MessageType::kRankReport,
                 MessageType::kVoteRequest, MessageType::kVoteReport,
                 MessageType::kMaskBroadcast, MessageType::kAccuracyRequest,
                 MessageType::kAccuracyReport, MessageType::kLrScale,
                 MessageType::kShutdown, MessageType::kRegister,
                 MessageType::kRegisterAck, MessageType::kHeartbeat,
                 MessageType::kHeartbeatAck, MessageType::kModelUpdateQuantized,
                 MessageType::kRoundSync, MessageType::kRoundSyncAck}) {
    EXPECT_STRNE(message_type_name(t), "?");
  }
}

// --- failover codecs (DESIGN.md §18) ----------------------------------------

TEST(Codecs, RoundSyncRoundTrip) {
  RoundSync sync;
  sync.epoch = 3;
  sync.next_round = 7;
  const RoundSync back = decode_round_sync(encode_round_sync(sync));
  EXPECT_EQ(back.epoch, 3u);
  EXPECT_EQ(back.next_round, 7);
}

TEST(Codecs, RoundSyncRejectsNegativeRound) {
  RoundSync sync;
  sync.next_round = -1;
  EXPECT_THROW(decode_round_sync(encode_round_sync(sync)), DecodeError);
}

TEST(Codecs, RegisterCarriesSnapshotEpoch) {
  RegisterInfo info;
  info.role = NodeRole::kClient;
  info.node_id = 4;
  info.generation = 2;
  info.epoch = 9;
  const RegisterInfo back = decode_register(encode_register(info));
  EXPECT_EQ(back.node_id, 4);
  EXPECT_EQ(back.generation, 2u);
  EXPECT_EQ(back.epoch, 9u);

  RegisterAck ack;
  ack.accepted = true;
  ack.epoch = 9;
  EXPECT_EQ(decode_register_ack(encode_register_ack(ack)).epoch, 9u);
}

TEST(Codecs, EpochErrorIsASerializationError) {
  // collect_typed treats an epoch mismatch exactly like a malformed reply:
  // logged, counted, never fatal. That hinges on the inheritance chain.
  try {
    throw EpochError("stale epoch");
  } catch (const SerializationError&) {
    SUCCEED();
  } catch (...) {
    FAIL() << "EpochError must derive from SerializationError";
  }
}
