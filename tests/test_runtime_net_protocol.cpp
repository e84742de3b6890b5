// Wire-protocol layer: header and payload encode/decode round-trips
// (including ragged digit counts and a max-size frame), plus the hostile
// inputs a server must survive — truncation, bad magic/version, inflated
// inner counts, trailing garbage.  Suite carries the Runtime prefix so the
// TSan CI job picks it up with the rest of the serving stack.
#include "net/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

namespace tdam::net {
namespace {

// Split an encoded frame into (header, payload-view) the way a transport
// would.
FrameHeader split(const std::vector<std::uint8_t>& bytes,
                  const std::uint8_t** payload) {
  const FrameHeader header = decode_header(bytes.data(), bytes.size());
  EXPECT_EQ(bytes.size(), kHeaderBytes + header.payload_len);
  *payload = bytes.data() + kHeaderBytes;
  return header;
}

TEST(RuntimeNetProtocol, HeaderRoundTripCarriesAllFields) {
  FrameHeader in;
  in.type = MsgType::kQueryReply;
  in.payload_len = 0xDEADBEEF;
  in.request_id = 0x0123456789ABCDEFull;
  in.trace_id = 0xFEDCBA9876543210ull;
  std::vector<std::uint8_t> bytes;
  encode_header(in, bytes);
  ASSERT_EQ(bytes.size(), kHeaderBytes);
  const FrameHeader out = decode_header(bytes.data(), bytes.size());
  EXPECT_EQ(out.magic, kMagic);
  EXPECT_EQ(out.version, kProtocolVersion);
  EXPECT_EQ(out.type, MsgType::kQueryReply);
  EXPECT_EQ(out.payload_len, 0xDEADBEEFu);
  EXPECT_EQ(out.request_id, 0x0123456789ABCDEFull);
  EXPECT_EQ(out.trace_id, 0xFEDCBA9876543210ull);
}

TEST(RuntimeNetProtocol, HeaderRejectsTruncationBadMagicBadVersion) {
  std::vector<std::uint8_t> bytes;
  encode_header(FrameHeader{}, bytes);

  try {
    decode_header(bytes.data(), kHeaderBytes - 1);
    FAIL() << "truncated header decoded";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
  }

  auto bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  try {
    decode_header(bad_magic.data(), bad_magic.size());
    FAIL() << "bad magic decoded";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
  }

  auto bad_version = bytes;
  bad_version[2] = kProtocolVersion + 1;
  try {
    decode_header(bad_version.data(), bad_version.size());
    FAIL() << "future version decoded";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kUnsupportedVersion);
  }

  // v1 and v2 are retired: their headers are refused like any other
  // version byte, never read with the v3 payload schemas.
  for (const int retired : {0, 1, 2}) {
    auto old_version = bytes;
    old_version[2] = static_cast<std::uint8_t>(retired);
    try {
      decode_header(old_version.data(), old_version.size());
      FAIL() << "version " << retired << " decoded";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, WireCode::kUnsupportedVersion);
    }
  }
}

TEST(RuntimeNetProtocol, HeaderAcceptsEveryCurrentlySpokenVersion) {
  // One version is spoken: kProtocolVersion decodes, every other version
  // byte is a named kUnsupportedVersion.
  for (int v = 0; v <= 0xFF; ++v) {
    std::vector<std::uint8_t> bytes;
    FrameHeader in;
    in.version = static_cast<std::uint8_t>(v);
    encode_header(in, bytes);
    if (v == kProtocolVersion) {
      EXPECT_EQ(decode_header(bytes.data(), bytes.size()).version, v);
      continue;
    }
    try {
      decode_header(bytes.data(), bytes.size());
      ADD_FAILURE() << "version " << v << " decoded";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, WireCode::kUnsupportedVersion) << "version " << v;
    }
  }
}

TEST(RuntimeNetProtocol, QueryRoundTripRaggedSizes) {
  // 0 digits through a few hundred, including odd (ragged) counts that
  // leave the payload unaligned.
  for (const std::size_t n : {0u, 1u, 3u, 7u, 31u, 64u, 257u}) {
    QueryRequest in;
    in.k = 5;
    in.deadline_us = 1234;
    for (std::size_t i = 0; i < n; ++i)
      in.digits.push_back(static_cast<std::uint16_t>(i * 7 % 65536));
    const auto bytes = encode_query(42, in);
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    EXPECT_EQ(header.type, MsgType::kQuery);
    EXPECT_EQ(header.request_id, 42u);
    const auto out = decode_query(payload, header.payload_len);
    EXPECT_EQ(out.k, in.k);
    EXPECT_EQ(out.deadline_us, in.deadline_us);
    EXPECT_EQ(out.digits, in.digits);
  }
}

TEST(RuntimeNetProtocol, QueryReplyRoundTripAllCodes) {
  for (const auto code : {WireCode::kOk, WireCode::kRejected, WireCode::kShed,
                          WireCode::kDeadlineExpired}) {
    QueryReply in;
    in.code = code;
    in.generation = 99;
    in.metric = core::DigitMetric::kCosine;
    if (code == WireCode::kOk)
      for (int i = 0; i < 5; ++i)
        in.entries.push_back({.row = 1000 - i, .score = 1.0 - i * 0.125});
    const auto bytes = encode_query_reply(7, 0xABCDull, in);
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    EXPECT_EQ(header.trace_id, 0xABCDull);
    EXPECT_EQ(header.version, kProtocolVersion);
    const auto out = decode_query_reply(payload, header.payload_len);
    EXPECT_EQ(out.code, in.code);
    EXPECT_EQ(out.generation, in.generation);
    EXPECT_EQ(out.metric, core::DigitMetric::kCosine);
    ASSERT_EQ(out.entries.size(), in.entries.size());
    for (std::size_t i = 0; i < in.entries.size(); ++i) {
      EXPECT_EQ(out.entries[i].row, in.entries[i].row);
      // f64 on the wire is the bit pattern: exact, not approximate.
      EXPECT_EQ(out.entries[i].score, in.entries[i].score);
    }
  }
}

TEST(RuntimeNetProtocol, QueryReplyRejectsUnknownMetricId) {
  QueryReply in;
  in.code = WireCode::kOk;
  in.generation = 1;
  const auto bytes = encode_query_reply(1, 0, in);
  // The metric byte sits right after code (1) + generation (8).
  auto payload = std::vector<std::uint8_t>(bytes.begin() + kHeaderBytes,
                                           bytes.end());
  payload[9] = 0xEE;
  try {
    decode_query_reply(payload.data(), payload.size());
    FAIL() << "unknown metric id accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("metric"), std::string::npos);
  }
}

TEST(RuntimeNetProtocol, MaxSizeFrameRoundTrips) {
  // A query whose frame reaches exactly the default cap: the u32 digit
  // count leaves (cap - 12) bytes of u16 digits.
  const std::size_t n = (kDefaultMaxFrameBytes - 12) / 2;
  QueryRequest in;
  in.k = 1;
  in.digits.assign(n, 0x1234);
  const auto bytes = encode_query(1, in);
  ASSERT_EQ(bytes.size(), kHeaderBytes + 12 + 2 * n);
  ASSERT_LE(bytes.size() - kHeaderBytes, kDefaultMaxFrameBytes);
  const std::uint8_t* payload = nullptr;
  const auto header = split(bytes, &payload);
  const auto out = decode_query(payload, header.payload_len);
  EXPECT_EQ(out.digits.size(), n);
  EXPECT_EQ(out.digits.front(), 0x1234);
  EXPECT_EQ(out.digits.back(), 0x1234);
}

TEST(RuntimeNetProtocol, HelloStoreClearStatsErrorRoundTrip) {
  HelloReply hello;
  hello.stages = 64;
  hello.levels = 4;
  hello.max_frame_bytes = kDefaultMaxFrameBytes;
  hello.generation = 17;
  hello.backend = "behavioral";
  {
    const auto bytes = encode_hello_reply(3, hello);
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    const auto out = decode_hello_reply(payload, header.payload_len);
    EXPECT_EQ(out.stages, hello.stages);
    EXPECT_EQ(out.levels, hello.levels);
    EXPECT_EQ(out.backend, hello.backend);
    EXPECT_EQ(out.generation, hello.generation);
  }
  {
    StoreRequest in;
    in.digits = {1, 2, 3};
    const auto bytes = encode_store(4, in);
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    EXPECT_EQ(decode_store(payload, header.payload_len).digits, in.digits);
  }
  {
    const auto bytes = encode_store_reply(5, {.row = 41, .generation = 42});
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    const auto out = decode_store_reply(payload, header.payload_len);
    EXPECT_EQ(out.row, 41);
    EXPECT_EQ(out.generation, 42u);
  }
  {
    const auto bytes = encode_clear_reply(6, {.generation = 43});
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    EXPECT_EQ(decode_clear_reply(payload, header.payload_len).generation, 43u);
  }
  {
    StatsReply in;
    in.queries = 100;
    in.rejected = 3;
    in.rows = 1024;
    in.connections = 8;
    in.segments = 6;
    in.delta_rows = 120;
    in.compactions = 2;
    in.qps = 1234.5;
    in.p99_s = 0.0125;
    const auto bytes = encode_stats_reply(7, in);
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    const auto out = decode_stats_reply(payload, header.payload_len);
    EXPECT_EQ(out.queries, in.queries);
    EXPECT_EQ(out.rejected, in.rejected);
    EXPECT_EQ(out.rows, in.rows);
    EXPECT_EQ(out.connections, in.connections);
    EXPECT_EQ(out.segments, in.segments);
    EXPECT_EQ(out.delta_rows, in.delta_rows);
    EXPECT_EQ(out.compactions, in.compactions);
    EXPECT_DOUBLE_EQ(out.qps, in.qps);
    EXPECT_DOUBLE_EQ(out.p99_s, in.p99_s);
  }
  {
    const auto bytes = encode_error(
        8, {.code = WireCode::kOversizedFrame, .message = "too big"});
    const std::uint8_t* payload = nullptr;
    const auto header = split(bytes, &payload);
    const auto out = decode_error(payload, header.payload_len);
    EXPECT_EQ(out.code, WireCode::kOversizedFrame);
    EXPECT_EQ(out.message, "too big");
  }
}

TEST(RuntimeNetProtocol, TruncatedPayloadThrowsMalformed) {
  QueryRequest in;
  in.k = 3;
  in.digits = {1, 2, 3, 4};
  const auto bytes = encode_query(1, in);
  // Every strict prefix of the payload must throw, never crash or succeed.
  for (std::size_t cut = 0; cut < bytes.size() - kHeaderBytes; ++cut) {
    try {
      decode_query(bytes.data() + kHeaderBytes, cut);
      FAIL() << "decoded from " << cut << " of "
             << bytes.size() - kHeaderBytes << " payload bytes";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    }
  }
}

TEST(RuntimeNetProtocol, HostileDigitCountIsRejectedWithoutAllocating) {
  // Claim 2^31 digits in a 16-byte payload: check_count must trip on the
  // declared count vs. remaining bytes, before any reserve.
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(1);           // k
  w.u32(0);           // deadline_us
  w.u32(0x80000000u); // digit count
  w.u32(0);           // 4 bytes where 2^32 were promised
  try {
    decode_query(payload.data(), payload.size());
    FAIL() << "hostile count accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("digit_count"), std::string::npos);
  }
}

TEST(RuntimeNetProtocol, TrailingBytesAreRejected) {
  QueryRequest in;
  in.digits = {9};
  auto bytes = encode_query(1, in);
  bytes.push_back(0x00);  // one byte past the declared payload
  try {
    decode_query(bytes.data() + kHeaderBytes, bytes.size() - kHeaderBytes);
    FAIL() << "trailing garbage accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
  }
}

TEST(RuntimeNetProtocol, StoreBatchRoundTripRaggedShapes) {
  for (const std::uint32_t rows : {0u, 1u, 3u, 7u, 64u}) {
    for (const std::uint32_t dpr : {1u, 5u, 64u}) {
      StoreBatchRequest in;
      in.digits_per_row = dpr;
      for (std::uint32_t i = 0; i < rows * dpr; ++i)
        in.digits.push_back(static_cast<std::uint16_t>(i % 7));
      ASSERT_EQ(in.rows(), rows);
      const auto bytes = encode_store_batch(9, in);
      const std::uint8_t* payload = nullptr;
      const auto header = split(bytes, &payload);
      const auto out = decode_store_batch(payload, header.payload_len);
      EXPECT_EQ(out.digits_per_row, dpr);
      EXPECT_EQ(out.rows(), rows);
      EXPECT_EQ(out.digits, in.digits);
    }
  }
}

TEST(RuntimeNetProtocol, StoreBatchReplyRoundTrip) {
  const auto bytes = encode_store_batch_reply(
      10, {.rows = 16, .first_row = 1024, .generation = 99});
  const std::uint8_t* payload = nullptr;
  const auto header = split(bytes, &payload);
  const auto out = decode_store_batch_reply(payload, header.payload_len);
  EXPECT_EQ(out.rows, 16u);
  EXPECT_EQ(out.first_row, 1024);
  EXPECT_EQ(out.generation, 99u);
}

TEST(RuntimeNetProtocol, StoreBatchRejectsZeroDigitsPerRowWithRows) {
  // rows > 0 with digits_per_row == 0 describes an infinite stream of
  // empty rows; the decoder must reject it instead of looping or storing.
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(3);  // row_count
  w.u32(0);  // digits_per_row
  try {
    decode_store_batch(payload.data(), payload.size());
    FAIL() << "zero digits_per_row accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("digits_per_row"),
              std::string::npos);
  }
}

TEST(RuntimeNetProtocol, StoreBatchHostileRowCountIsRejected) {
  // 2^31 rows of 64 digits claimed in a 12-byte payload: the declared
  // byte total must trip check_count before any allocation.
  std::vector<std::uint8_t> payload;
  WireWriter w(payload);
  w.u32(0x80000000u);  // row_count
  w.u32(64);           // digits_per_row
  w.u32(0);            // 4 bytes where 2^38 were promised
  try {
    decode_store_batch(payload.data(), payload.size());
    FAIL() << "hostile row count accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    EXPECT_NE(std::string(e.what()).find("row_count"), std::string::npos);
  }
}

TEST(RuntimeNetProtocol, StoreBatchTruncationAndTrailingAreRejected) {
  StoreBatchRequest in;
  in.digits_per_row = 3;
  in.digits = {1, 2, 3, 4, 5, 6};
  auto bytes = encode_store_batch(1, in);
  for (std::size_t cut = 0; cut < bytes.size() - kHeaderBytes; ++cut) {
    try {
      decode_store_batch(bytes.data() + kHeaderBytes, cut);
      FAIL() << "decoded from " << cut << " of "
             << bytes.size() - kHeaderBytes << " payload bytes";
    } catch (const ProtocolError& e) {
      EXPECT_EQ(e.code, WireCode::kMalformedFrame);
    }
  }
  bytes.push_back(0x00);
  try {
    decode_store_batch(bytes.data() + kHeaderBytes,
                       bytes.size() - kHeaderBytes);
    FAIL() << "trailing garbage accepted";
  } catch (const ProtocolError& e) {
    EXPECT_EQ(e.code, WireCode::kMalformedFrame);
  }
}

TEST(RuntimeNetProtocol, StatusMappingIsTotalAndStable) {
  EXPECT_EQ(to_wire_code(runtime::QueryStatus::kOk), WireCode::kOk);
  EXPECT_EQ(to_wire_code(runtime::QueryStatus::kRejected),
            WireCode::kRejected);
  EXPECT_EQ(to_wire_code(runtime::QueryStatus::kShed), WireCode::kShed);
  EXPECT_EQ(to_wire_code(runtime::QueryStatus::kDeadlineExpired),
            WireCode::kDeadlineExpired);
  EXPECT_STREQ(wire_code_name(WireCode::kShed), "shed");
  EXPECT_STREQ(wire_code_name(static_cast<WireCode>(200)), "unknown");
}

}  // namespace
}  // namespace tdam::net
