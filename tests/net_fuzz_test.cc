// Framing-layer fuzz campaign for the network front end.
//
// Two layers, same contract — hostile bytes can make a request fail, never
// make the process misbehave:
//   1. Pure parsers: FrameDecoder / ParseRequestPayload /
//      ParseResponsePayload hammered with the corruption kit (truncation,
//      bit flips, length inflation, splices, scrambles) plus hand-built
//      adversarial declared lengths (0 and 2^32-1). No sockets, so a
//      failure reproduces from its seed alone.
//   2. Live server: corrupted request streams — including forged CRCs that
//      deliberately pass the checksum — sent over real connections. The
//      server must reply with a Status error or cleanly close, keep serving
//      a control connection, and never crash, hang, or leak (the ASan CI
//      job runs this binary with --fuzz-iters=10000).
//
// This binary has its own main (not gtest_main) to parse --fuzz-iters=N.

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include <gtest/gtest.h>

#include "common/crc32.h"
#include "common/fault.h"
#include "common/prng.h"
#include "core/registry.h"
#include "engine/thread_pool.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket_io.h"
#include "net/wire.h"
#include "service/plan_text.h"
#include "service/sharded_index.h"
#include "workload/synthetic.h"

namespace intcomp {

int g_fuzz_iters = 300;

namespace net {
namespace {

const std::vector<std::string>& PlanPool() {
  static const auto* plans = new std::vector<std::string>{
      "0",
      "&(0,1)",
      "|(&(0,2),1)",
      "&(|(0,1),|(1,2),0)",
      "4294967295",               // leaf id far out of range: service rejects
      "&(&(&(&(0))))",
      "not a plan at all",
      "&(0,1",                    // truncated grammar
      std::string(2000, '9'),     // oversized number
  };
  return *plans;
}

std::vector<uint8_t> GenuineRequestFrame(Prng* rng) {
  QueryRequest req;
  if (rng->NextBounded(8) == 0) {
    req.type = MsgType::kPing;
  } else {
    req.type = MsgType::kQuery;
    req.deadline_ns = rng->NextBounded(3) == 0 ? 1 + rng->NextBounded(1000) : 0;
    req.plan_text = PlanPool()[rng->NextBounded(PlanPool().size())];
  }
  std::vector<uint8_t> frame;
  EncodeRequestFrame(req, &frame);
  return frame;
}

// Applies one corruption operator from the kit. `fix_crc` re-stamps the
// frame CRC afterwards so the mutation reaches the payload parsers instead
// of dying at the checksum — checksum forgery, the adversarial case.
std::vector<uint8_t> Corrupt(const std::vector<uint8_t>& frame, Prng* rng,
                             bool fix_crc) {
  std::vector<uint8_t> mut;
  switch (rng->NextBounded(5)) {
    case 0:
      mut = TruncateAt(frame, rng->NextBounded(frame.size() + 1));
      break;
    case 1:
      mut = frame;
      FlipBits(&mut, 1 + rng->NextBounded(8), rng);
      break;
    case 2:
      mut = frame;
      InflateLength(&mut, rng);
      break;
    case 3: {
      const std::vector<uint8_t> other = GenuineRequestFrame(rng);
      mut = Splice(frame, other, rng);
      break;
    }
    default:
      mut = frame;
      Scramble(&mut, rng);
      break;
  }
  if (fix_crc && mut.size() >= kFrameHeaderBytes) {
    uint32_t len = 0;
    std::memcpy(&len, mut.data() + 4, 4);
    if (len <= mut.size() - kFrameHeaderBytes) {
      const uint32_t crc =
          Crc32Of({mut.data() + kFrameHeaderBytes, static_cast<size_t>(len)});
      std::memcpy(mut.data() + 8, &crc, 4);
    }
  }
  return mut;
}

// Builds a raw frame header declaring `len` payload bytes (carrying `body`
// actual bytes) — the tool for adversarial declared lengths.
std::vector<uint8_t> RawFrame(uint32_t len, const std::vector<uint8_t>& body) {
  std::vector<uint8_t> out(kFrameHeaderBytes + body.size());
  std::memcpy(out.data(), &kFrameMagic, 4);
  std::memcpy(out.data() + 4, &len, 4);
  const uint32_t crc = Crc32Of(body);
  std::memcpy(out.data() + 8, &crc, 4);
  if (!body.empty()) {
    std::memcpy(out.data() + kFrameHeaderBytes, body.data(), body.size());
  }
  return out;
}

TEST(NetFuzzTest, FrameDecoderSurvivesCorruptStreams) {
  Prng rng(40001);
  for (int it = 0; it < g_fuzz_iters; ++it) {
    FrameDecoder decoder(1 << 16);
    // A stream of several frames, some corrupted, fed in random chunk sizes
    // (the byte-chunking a TCP receive path actually sees).
    std::vector<uint8_t> stream;
    const size_t frames = 1 + rng.NextBounded(4);
    for (size_t f = 0; f < frames; ++f) {
      std::vector<uint8_t> frame = GenuineRequestFrame(&rng);
      if (rng.NextBounded(2) == 0) {
        frame = Corrupt(frame, &rng, rng.NextBounded(2) == 0);
      }
      stream.insert(stream.end(), frame.begin(), frame.end());
    }
    size_t off = 0;
    while (off < stream.size()) {
      const size_t chunk =
          std::min<size_t>(1 + rng.NextBounded(64), stream.size() - off);
      decoder.Feed(stream.data() + off, chunk);
      off += chunk;
      std::vector<uint8_t> payload;
      Status err;
      while (true) {
        const FrameDecoder::Result r = decoder.Next(&payload, &err);
        if (r == FrameDecoder::Result::kFrame) {
          // Whatever came through the CRC gate, the parsers must hold.
          QueryRequest req;
          (void)ParseRequestPayload(payload, 1 << 15, &req);
          QueryResponse resp;
          (void)ParseResponsePayload(payload, &resp);
          continue;
        }
        if (r == FrameDecoder::Result::kBad) {
          EXPECT_FALSE(err.ok());
          off = stream.size();  // connection would close here
        }
        break;
      }
    }
    // The decoder never buffers past one declared frame: memory stays
    // bounded by the cap however hostile the stream.
    EXPECT_LE(decoder.BufferedBytes(), (1u << 16) + kFrameHeaderBytes);
  }
}

TEST(NetFuzzTest, ParsersSurvivePureNoise) {
  Prng rng(40002);
  for (int it = 0; it < g_fuzz_iters; ++it) {
    std::vector<uint8_t> noise(rng.NextBounded(256));
    for (auto& b : noise) b = static_cast<uint8_t>(rng.Next());
    QueryRequest req;
    (void)ParseRequestPayload(noise, 1 << 15, &req);
    QueryResponse resp;
    (void)ParseResponsePayload(noise, &resp);
  }
}

TEST(NetFuzzTest, AdversarialDeclaredLengthsAreRejectedCheaply) {
  // Declared length 2^32-1 with a tiny body: the decoder must go bad on the
  // 12-byte header alone — never waiting for (or allocating) 4 GiB.
  {
    FrameDecoder decoder;  // default 4 MiB cap
    const std::vector<uint8_t> frame = RawFrame(0xFFFFFFFFu, {1, 2, 3});
    decoder.Feed(frame.data(), frame.size());
    std::vector<uint8_t> payload;
    Status err;
    EXPECT_EQ(decoder.Next(&payload, &err), FrameDecoder::Result::kBad);
    EXPECT_EQ(err.code(), StatusCode::kCorruptData);
    EXPECT_LE(decoder.BufferedBytes(), frame.size());
  }
  // Declared length 0: a valid (empty) frame whose payload then fails the
  // request parser — framing survives, the payload layer rejects.
  {
    FrameDecoder decoder;
    const std::vector<uint8_t> frame = RawFrame(0, {});
    decoder.Feed(frame.data(), frame.size());
    std::vector<uint8_t> payload;
    Status err;
    ASSERT_EQ(decoder.Next(&payload, &err), FrameDecoder::Result::kFrame);
    EXPECT_TRUE(payload.empty());
    QueryRequest req;
    EXPECT_EQ(ParseRequestPayload(payload, 1 << 15, &req).code(),
              StatusCode::kCorruptData);
  }
  // Declared length one past the cap: rejected exactly at the boundary.
  {
    FrameDecoder decoder(64);
    const std::vector<uint8_t> frame = RawFrame(65, {});
    decoder.Feed(frame.data(), frame.size());
    std::vector<uint8_t> payload;
    Status err;
    EXPECT_EQ(decoder.Next(&payload, &err), FrameDecoder::Result::kBad);
  }
  // Declared plan length beyond the payload: request parser rejects.
  {
    std::vector<uint8_t> payload;
    payload.push_back(static_cast<uint8_t>(MsgType::kQuery));
    payload.resize(payload.size() + 8);  // deadline
    const uint32_t plan_len = 0xFFFFFFFFu;
    const size_t n = payload.size();
    payload.resize(n + 4);
    std::memcpy(payload.data() + n, &plan_len, 4);
    payload.push_back('0');  // one actual byte
    QueryRequest req;
    EXPECT_EQ(ParseRequestPayload(payload, 1 << 15, &req).code(),
              StatusCode::kCorruptData);
  }
}

TEST(NetFuzzTest, LiveServerSurvivesCorruptedStreams) {
  const Codec* codec = FindCodec("Roaring");
  ASSERT_NE(codec, nullptr);
  std::vector<std::vector<uint32_t>> lists;
  lists.push_back(GenerateUniform(600, 1 << 13, 41));
  lists.push_back(GenerateZipf(600, 1 << 13, kPaperZipfSkew, 42));
  lists.push_back(GenerateMarkov(600, 1 << 13, kPaperMarkovClustering, 43));

  ThreadPool pool(2);
  const ShardedIndex index = ShardedIndex::Build(*codec, lists, 1 << 13, 2);
  IndexService service(&index, &pool, IndexServiceOptions{});
  ServerOptions options;
  options.idle_timeout_ms = 2000;  // reap fuzz connections we abandon
  QueryServer server(&service, options);
  ASSERT_TRUE(server.Start().ok());

  QueryPlan control_plan;
  ASSERT_TRUE(ParsePlanText("&(0,1)", &control_plan).ok());
  std::vector<uint32_t> ref;
  ASSERT_TRUE(service.Query(control_plan, &ref).ok());

  Prng rng(40003);
  QueryClient fuzz;
  for (int it = 0; it < g_fuzz_iters; ++it) {
    if (!fuzz.Connected()) {
      ASSERT_TRUE(fuzz.Connect("127.0.0.1", server.port()).ok());
    }
    std::vector<uint8_t> bytes = GenuineRequestFrame(&rng);
    const int shape = static_cast<int>(rng.NextBounded(8));
    if (shape == 6) {
      bytes = RawFrame(0xFFFFFFFFu, {});            // hostile declared length
    } else if (shape == 7) {
      bytes = RawFrame(0, {});                      // zero-length frame
    } else if (shape != 0) {                        // 1/8 genuine passthrough
      bytes = Corrupt(bytes, &rng, rng.NextBounded(2) == 0);
    }
    if (!fuzz.SendRaw(bytes.data(), bytes.size()).ok()) {
      fuzz.Close();  // server already closed on an earlier framing error
      continue;
    }
    // Bounded-read a reply on a sample of iterations: whatever arrives must
    // be a well-formed reply frame (any status). Timeouts (server waiting
    // for the rest of a truncated frame) and clean closes are both fine.
    if (it % 16 == 0) {
      (void)SetRecvTimeoutMs(fuzz.raw_fd(), 20);
      QueryResponse resp;
      const Status st = fuzz.ReadResponse(&resp);
      if (!st.ok() && st.code() != StatusCode::kDeadlineExceeded) {
        fuzz.Close();  // framing desync or server-side close: reconnect
      } else if (st.ok()) {
        (void)SetRecvTimeoutMs(fuzz.raw_fd(), 0);
      }
    }
    // Control probe: the server keeps serving correct answers throughout.
    if (it % 64 == 0 || it + 1 == g_fuzz_iters) {
      QueryClient control;
      ASSERT_TRUE(control.Connect("127.0.0.1", server.port()).ok());
      std::vector<uint32_t> rows;
      const Status st = control.Query("&(0,1)", 0, &rows);
      ASSERT_TRUE(st.ok()) << "iter " << it << ": " << st.ToString();
      ASSERT_EQ(rows, ref) << "iter " << it;
    }
  }
  fuzz.Close();
  server.Stop();
  // If any fuzz payload had crashed a connection thread uncleanly the join
  // in Stop() would hang or the sanitizer job would flag it; reaching here
  // with a served control query every 64 iterations is the pass condition.
}

}  // namespace
}  // namespace net
}  // namespace intcomp

int main(int argc, char** argv) {
  ::testing::InitGoogleTest(&argc, argv);
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const char* value = nullptr;
    if (arg.rfind("--fuzz-iters=", 0) == 0) {
      value = argv[i] + 13;
    } else if (arg == "--fuzz-iters" && i + 1 < argc) {
      value = argv[++i];
    } else {
      continue;
    }
    const int n = std::atoi(value);
    if (n <= 0) {
      std::fprintf(stderr, "bad --fuzz-iters value: %s\n", value);
      return 2;
    }
    intcomp::g_fuzz_iters = n;
  }
  return RUN_ALL_TESTS();
}
