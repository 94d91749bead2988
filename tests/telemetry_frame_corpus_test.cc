// Malformed-frame corpus for the FEMTEL1 wire (DESIGN.md §11/§14), run
// against BOTH decoders of the framing: the supervisor-side
// ParseTelemetryWire (lenient by design — a worker killed mid-write must
// degrade to "the bytes are the payload") and the socket FrameDecoder
// (strict by design — a corrupt socket stream is closed, but must never
// crash, over-buffer, or desync onto a later client's frames), the latter
// both directly and behind ServeClient's blocking read path against a
// scripted peer. Every case asserts graceful degradation plus the
// fairem.telemetry.unknown_frames accounting.

#include <gtest/gtest.h>

#include <poll.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <csignal>
#include <functional>
#include <string>
#include <vector>

#include "src/obs/metrics.h"
#include "src/obs/telemetry.h"
#include "src/serve/client.h"
#include "src/serve/daemon_core.h"
#include "src/serve/protocol.h"
#include "src/util/io_util.h"

namespace fairem {
namespace {

uint64_t UnknownFrames() {
  return MetricsRegistry::Global()
      .GetCounter("fairem.telemetry.unknown_frames")
      ->value();
}

std::string Frame(const std::string& type, const std::string& bytes) {
  char header[32];
  std::snprintf(header, sizeof(header), "%s%016zx\n", type.c_str(),
                bytes.size());
  return std::string(header) + bytes;
}

std::string Magic() { return kTelemetryMagic; }

// --- ParseTelemetryWire (lenient consumer) ---------------------------------

TEST(FrameCorpusTest, TelemetryTruncatedLengthPrefix) {
  // Header cut mid-length-field: no complete frame ever parsed, so the
  // whole wire degrades to an unframed payload, not an error.
  const std::string wire = Magic() + "TELE00000000";
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_FALSE(parsed.framed);
  EXPECT_EQ(parsed.payload, wire);
}

TEST(FrameCorpusTest, TelemetryTruncatedAfterValidFrame) {
  // One complete frame, then a header cut short: keep the parsed frame,
  // flag the truncation.
  const std::string wire = Magic() + Frame("TELE", "{}") + "PROF000";
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_TRUE(parsed.framed);
  EXPECT_TRUE(parsed.truncated);
  ASSERT_EQ(parsed.frames.size(), 1u);
  EXPECT_EQ(parsed.frames[0].bytes, "{}");
}

TEST(FrameCorpusTest, TelemetryOversizedDeclaredLength) {
  // A body length far beyond the bytes present: truncated-mid-frame, the
  // parser must not wait for (or allocate) the declared terabyte.
  const std::string wire =
      Magic() + Frame("TELE", "{}") + "PROF0000010000000000\n";
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_TRUE(parsed.framed);
  EXPECT_TRUE(parsed.truncated);
  ASSERT_EQ(parsed.frames.size(), 1u);
}

TEST(FrameCorpusTest, TelemetryUnknownTypeFloodCounted) {
  std::string wire = Magic();
  for (int i = 0; i < 64; ++i) wire += Frame("ZZZ" + std::to_string(i % 10),
                                             "future bytes");
  wire += Frame("PAYL", "the payload");
  const uint64_t before = UnknownFrames();
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_EQ(UnknownFrames() - before, 64u);
  EXPECT_TRUE(parsed.framed);
  EXPECT_FALSE(parsed.truncated);
  EXPECT_EQ(parsed.payload, "the payload");
  EXPECT_EQ(parsed.frames.size(), 64u);  // kept, callers dispatch on type
}

TEST(FrameCorpusTest, TelemetryZeroLengthFrames) {
  const std::string wire =
      Magic() + Frame("TELE", "") + Frame("PROF", "") + Frame("PAYL", "");
  TelemetryWireParse parsed = ParseTelemetryWire(wire);
  EXPECT_TRUE(parsed.framed);
  EXPECT_FALSE(parsed.truncated);
  ASSERT_EQ(parsed.frames.size(), 2u);
  EXPECT_EQ(parsed.frames[0].bytes, "");
  EXPECT_EQ(parsed.payload, "");
}

TEST(FrameCorpusTest, TelemetryRoundTripSurvivesUnknownFrames) {
  // Forward compatibility: EncodeTelemetryWire output with a foreign frame
  // spliced in still yields the original telemetry + payload.
  std::vector<TelemetryFrame> frames;
  frames.push_back({"TELE", "{\"pid\":1}"});
  std::string wire = EncodeTelemetryWire(frames, "payload-bytes");
  // Splice an unknown frame between TELE and PAYL.
  const size_t payl_at = wire.find("PAYL");
  ASSERT_NE(payl_at, std::string::npos);
  wire.insert(payl_at, Frame("NEWF", "from the future"));
  TelemetryWireParse split = ParseTelemetryWire(wire);
  ASSERT_EQ(split.frames.size(), 2u);
  EXPECT_EQ(split.frames[0].type, kFrameTelemetry);
  EXPECT_EQ(split.frames[0].bytes, "{\"pid\":1}");
  EXPECT_EQ(split.payload, "payload-bytes");
}

// --- FrameDecoder (strict consumer) ----------------------------------------

Result<FrameDecoder::Next> FeedAll(FrameDecoder* decoder,
                                   const std::string& bytes,
                                   ServeMessage* out) {
  decoder->Feed(bytes.data(), bytes.size());
  return decoder->TryNext(out);
}

TEST(FrameCorpusTest, DecoderTruncatedLengthPrefixWaitsThenRejects) {
  FrameDecoder decoder;
  ServeMessage message;
  // A short header is just "need more bytes"...
  Result<FrameDecoder::Next> next =
      FeedAll(&decoder, Magic() + "QREQ00000000", &message);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, FrameDecoder::Next::kNeedMore);
  // ...until the rest arrives malformed (letters in the hex field): then
  // the stream is unrecoverable.
  next = FeedAll(&decoder, "garbage!\n", &message);
  EXPECT_FALSE(next.ok());
}

TEST(FrameCorpusTest, DecoderBadMagicRejected) {
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next =
      FeedAll(&decoder, "HTTP/1.1 200 OK\r\n\r\n", &message);
  EXPECT_FALSE(next.ok());
}

TEST(FrameCorpusTest, DecoderOversizedDeclaredLengthRejected) {
  FrameDecoder decoder;
  ServeMessage message;
  // 2^40 declared bytes: must be rejected up front, never buffered toward.
  Result<FrameDecoder::Next> next = FeedAll(
      &decoder, Magic() + "QREQ0000010000000000\n", &message);
  EXPECT_FALSE(next.ok());
  EXPECT_LT(decoder.buffered(), 1024u);
}

TEST(FrameCorpusTest, DecoderUnknownTypeFloodSkippedAndCounted) {
  FrameDecoder decoder;
  ServeMessage message;
  std::string wire = Magic();
  for (int i = 0; i < 32; ++i) wire += Frame("FUTR", "ignore");
  wire += Frame(kFrameQueryRequest, "{\"op\":\"ping\",\"id\":3}");
  const uint64_t before = UnknownFrames();
  Result<FrameDecoder::Next> next = FeedAll(&decoder, wire, &message);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, kFrameQueryRequest);
  EXPECT_EQ(UnknownFrames() - before, 32u);
}

TEST(FrameCorpusTest, DecoderZeroLengthFrame) {
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next =
      FeedAll(&decoder, Magic() + Frame(kFrameQueryRequest, ""), &message);
  ASSERT_TRUE(next.ok()) << next.status();
  EXPECT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.bytes, "");
  // The empty request body is the next layer's problem — and a structured
  // error there, not a crash.
  EXPECT_FALSE(ParseQueryRequest(message.bytes).ok());
}

TEST(FrameCorpusTest, DecoderByteAtATimeDelivery) {
  // Slow-client shape: the message dribbles in one byte per Feed. Every
  // intermediate step is kNeedMore; the final byte yields the message.
  QueryRequest ping;
  ping.op = "ping";
  ping.id = 42;
  const std::string wire =
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(ping));
  FrameDecoder decoder;
  ServeMessage message;
  for (size_t i = 0; i + 1 < wire.size(); ++i) {
    Result<FrameDecoder::Next> next =
        FeedAll(&decoder, wire.substr(i, 1), &message);
    ASSERT_TRUE(next.ok()) << "byte " << i << ": " << next.status();
    ASSERT_EQ(*next, FrameDecoder::Next::kNeedMore) << "byte " << i;
  }
  Result<FrameDecoder::Next> next =
      FeedAll(&decoder, wire.substr(wire.size() - 1), &message);
  ASSERT_TRUE(next.ok());
  EXPECT_EQ(*next, FrameDecoder::Next::kMessage);
  Result<QueryRequest> parsed = ParseQueryRequest(message.bytes);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->id, 42u);
}

TEST(FrameCorpusTest, DecoderBackToBackMessagesNoDesync) {
  // Two messages in one read must come out as two messages — the framing
  // must not eat into the second one's magic.
  QueryRequest a;
  a.op = "ping";
  a.id = 1;
  QueryRequest b;
  b.op = "stats";
  b.id = 2;
  std::string wire =
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(a)) +
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(b));
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next = FeedAll(&decoder, wire, &message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(ParseQueryRequest(message.bytes)->id, 1u);
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(ParseQueryRequest(message.bytes)->id, 2u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

// --- Router wire path (HLTH + forward compatibility) -----------------------

TEST(FrameCorpusTest, DecoderHealthFrameIsKnown) {
  // HLTH is a first-class frame type: it must come out as a message, not
  // be skipped into the unknown-frames counter.
  HealthReport probe;
  probe.probe = true;
  probe.id = 9;
  FrameDecoder decoder;
  ServeMessage message;
  const uint64_t before = UnknownFrames();
  Result<FrameDecoder::Next> next = FeedAll(
      &decoder,
      EncodeServeMessage(kFrameHealth, SerializeHealthReport(probe)),
      &message);
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameHealth));
  EXPECT_EQ(UnknownFrames(), before);
  Result<HealthReport> parsed = ParseHealthReport(message.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->probe);
  EXPECT_EQ(parsed->id, 9u);
}

TEST(FrameCorpusTest, DecoderInterleavedHealthAndQueryNoDesync) {
  // The router's probe connection and a query connection share the wire
  // format; on one stream, HLTH and QREQ/QRSP must interleave without the
  // decoder desyncing or dropping either.
  QueryRequest query;
  query.op = "ping";
  query.id = 11;
  HealthReport probe;
  probe.probe = true;
  probe.id = 12;
  HealthReport reply;
  reply.id = 12;
  reply.queue_depth = 3.0;
  std::string wire =
      EncodeServeMessage(kFrameHealth, SerializeHealthReport(probe)) +
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(query)) +
      EncodeServeMessage(kFrameHealth, SerializeHealthReport(reply));
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next = FeedAll(&decoder, wire, &message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameHealth));
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameQueryRequest));
  EXPECT_EQ(ParseQueryRequest(message.bytes)->id, 11u);
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameHealth));
  EXPECT_DOUBLE_EQ(ParseHealthReport(message.bytes)->queue_depth, 3.0);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCorpusTest, QueryResponseToleratesUnknownJsonFields) {
  // Forward compatibility on the router's return path: a newer backend may
  // report more per-response detail; older routers/clients must parse past
  // it untouched.
  const std::string json =
      "{\"id\":5,\"ok\":true,\"payload\":\"pong\","
      "\"served_by\":\"backend-2\",\"hedged\":false,"
      "\"attempt\":{\"n\":2,\"backend\":\"a.sock\"}}";
  Result<QueryResponse> response = ParseQueryResponse(json);
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_EQ(response->id, 5u);
  EXPECT_TRUE(response->status.ok());
  EXPECT_EQ(response->payload, "pong");

  const std::string error_json =
      "{\"id\":6,\"ok\":false,\"code\":10,\"code_name\":\"unavailable\","
      "\"message\":\"shed\",\"retry_after_s\":0.25,"
      "\"breaker\":\"half-open\",\"queue_eta_s\":1.5}";
  Result<QueryResponse> error = ParseQueryResponse(error_json);
  ASSERT_TRUE(error.ok()) << error.status();
  EXPECT_TRUE(error->status.IsUnavailable());
  EXPECT_DOUBLE_EQ(error->retry_after_s, 0.25);
}

TEST(FrameCorpusTest, HealthReportToleratesUnknownJsonFieldsAndDefaults) {
  // Newer peers may report more load detail; missing fields fall back to
  // safe defaults, so mixed-version fleets keep probing each other.
  Result<HealthReport> rich = ParseHealthReport(
      "{\"probe\":false,\"id\":3,\"serving\":true,\"queue_depth\":2,"
      "\"inflight\":1,\"retry_after_s\":0.1,"
      "\"cpu_load\":0.9,\"build\":\"v9\",\"shards\":[1,2]}");
  ASSERT_TRUE(rich.ok()) << rich.status();
  EXPECT_EQ(rich->id, 3u);
  EXPECT_TRUE(rich->serving);
  EXPECT_DOUBLE_EQ(rich->queue_depth, 2.0);

  Result<HealthReport> bare = ParseHealthReport("{}");
  ASSERT_TRUE(bare.ok()) << bare.status();
  EXPECT_FALSE(bare->probe);
  EXPECT_EQ(bare->id, 0u);
  EXPECT_TRUE(bare->serving);

  EXPECT_FALSE(ParseHealthReport("[1,2,3]").ok());
  EXPECT_FALSE(ParseHealthReport("not json").ok());
}

// --- Trace context on the wire (DESIGN.md §16) ------------------------------

TEST(FrameCorpusTest, TraceContextRoundTripsOnQueryRequest) {
  QueryRequest request;
  request.op = "cell";
  request.id = 21;
  request.dataset = "Cricket";
  request.matcher = "DTMatcher";
  request.trace.trace_hi = 0x0123456789abcdefull;
  request.trace.trace_lo = 0xfedcba9876543210ull;
  request.trace.parent_span_id = 77;
  request.trace.sampled = true;
  Result<QueryRequest> parsed =
      ParseQueryRequest(SerializeQueryRequest(request));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_TRUE(parsed->trace.valid());
  EXPECT_EQ(parsed->trace.trace_hi, request.trace.trace_hi);
  EXPECT_EQ(parsed->trace.trace_lo, request.trace.trace_lo);
  EXPECT_EQ(parsed->trace.parent_span_id, 77u);
  EXPECT_TRUE(parsed->trace.sampled);
}

TEST(FrameCorpusTest, UntracedRequestOmitsTraceFieldsFromWire) {
  // The untraced wire form must be byte-identical to the pre-tracing one:
  // an old peer never sees a field it does not know.
  QueryRequest request;
  request.op = "ping";
  request.id = 3;
  const std::string json = SerializeQueryRequest(request);
  EXPECT_EQ(json.find("trace_id"), std::string::npos);
  EXPECT_EQ(json.find("span_id"), std::string::npos);
  EXPECT_EQ(json.find("sampled"), std::string::npos);
  Result<QueryRequest> parsed = ParseQueryRequest(json);
  ASSERT_TRUE(parsed.ok());
  EXPECT_FALSE(parsed->trace.valid());
}

TEST(FrameCorpusTest, MalformedTraceFieldsDegradeToUntraced) {
  // A garbled trace annotation must never fail the request itself — the
  // query still runs, just untraced.
  const char* corpus[] = {
      // trace_id not hex at all
      "{\"op\":\"ping\",\"id\":1,\"trace_id\":\"not-hex\",\"span_id\":7}",
      // trace_id too short
      "{\"op\":\"ping\",\"id\":1,\"trace_id\":\"abc\",\"span_id\":7}",
      // trace_id wrong type
      "{\"op\":\"ping\",\"id\":1,\"trace_id\":123,\"span_id\":7}",
      // trace_id all zeros (not a valid identity)
      "{\"op\":\"ping\",\"id\":1,"
      "\"trace_id\":\"00000000000000000000000000000000\"}",
  };
  for (const char* json : corpus) {
    Result<QueryRequest> parsed = ParseQueryRequest(json);
    ASSERT_TRUE(parsed.ok()) << json << ": " << parsed.status();
    EXPECT_FALSE(parsed->trace.valid()) << json;
    EXPECT_EQ(parsed->id, 1u) << json;
  }
  // span_id malformed alongside a good trace_id: keep the trace identity,
  // drop the parent link.
  Result<QueryRequest> parsed = ParseQueryRequest(
      "{\"op\":\"ping\",\"id\":1,"
      "\"trace_id\":\"0123456789abcdeffedcba9876543210\","
      "\"span_id\":\"wat\"}");
  ASSERT_TRUE(parsed.ok());
  EXPECT_TRUE(parsed->trace.valid());
  EXPECT_EQ(parsed->trace.parent_span_id, 0u);
}

TEST(FrameCorpusTest, ResponseSpansRoundTripAndTolerateMalformedEntries) {
  QueryResponse response;
  response.id = 9;
  response.payload = "pong";
  WireSpan span;
  span.name = "daemon.request";
  span.process = "daemon";
  span.pid = 42;
  span.span_id = 5;
  span.parent_span_id = 4;
  span.start_unix_us = 1000;
  span.duration_us = 250;
  span.annotations.push_back({"outcome", "ok"});
  response.spans.push_back(span);
  Result<QueryResponse> parsed =
      ParseQueryResponse(SerializeQueryResponse(response));
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  ASSERT_EQ(parsed->spans.size(), 1u);
  EXPECT_EQ(parsed->spans[0].name, "daemon.request");
  EXPECT_EQ(parsed->spans[0].parent_span_id, 4u);
  ASSERT_EQ(parsed->spans[0].annotations.size(), 1u);
  EXPECT_EQ(parsed->spans[0].annotations[0].second, "ok");

  // Malformed entries in the spans array drop silently (non-objects, a
  // span without its required name + nonzero span_id); the response — and
  // the well-formed spans around them — survive.
  Result<QueryResponse> tolerant = ParseQueryResponse(
      "{\"id\":9,\"ok\":true,\"payload\":\"pong\","
      "\"spans\":[\"not an object\",{\"name\":\"dropped\"},"
      "{\"name\":\"kept\",\"span_id\":2},17]}");
  ASSERT_TRUE(tolerant.ok()) << tolerant.status();
  ASSERT_EQ(tolerant->spans.size(), 1u);
  EXPECT_EQ(tolerant->spans[0].name, "kept");

  // An old peer's response has no spans field at all.
  Result<QueryResponse> old = ParseQueryResponse(
      "{\"id\":9,\"ok\":true,\"payload\":\"pong\"}");
  ASSERT_TRUE(old.ok());
  EXPECT_TRUE(old->spans.empty());
}

TEST(FrameCorpusTest, ProgressFrameIsKnownAndParseTolerant) {
  // PROG is a first-class frame type — skipped-and-counted would mean an
  // old router forwarding it as unknown desyncs nothing, but a new client
  // must receive it as a message.
  ProgressUpdate update;
  update.id = 31;
  update.fraction = 0.5;
  update.eta_s = 1.25;
  update.stage = "compute";
  update.trace_id = "0123456789abcdeffedcba9876543210";
  FrameDecoder decoder;
  ServeMessage message;
  const uint64_t before = UnknownFrames();
  Result<FrameDecoder::Next> next = FeedAll(
      &decoder,
      EncodeServeMessage(kFrameProgress, SerializeProgressUpdate(update)),
      &message);
  ASSERT_TRUE(next.ok()) << next.status();
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameProgress));
  EXPECT_EQ(UnknownFrames(), before);
  Result<ProgressUpdate> parsed = ParseProgressUpdate(message.bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status();
  EXPECT_EQ(parsed->id, 31u);
  EXPECT_DOUBLE_EQ(parsed->fraction, 0.5);
  EXPECT_EQ(parsed->stage, "compute");

  // Advisory means every field optional: a bare object parses, unknown
  // fields from a newer server pass through.
  Result<ProgressUpdate> bare = ParseProgressUpdate("{}");
  ASSERT_TRUE(bare.ok());
  EXPECT_EQ(bare->id, 0u);
  Result<ProgressUpdate> future = ParseProgressUpdate(
      "{\"id\":2,\"fraction\":0.1,\"phase_detail\":{\"cells\":9}}");
  ASSERT_TRUE(future.ok());
  EXPECT_EQ(future->id, 2u);
}

TEST(FrameCorpusTest, ProgressInterleavedWithResponseNoDesync) {
  // The mid-query shape a traced client actually sees: PROG, PROG, QRSP on
  // one stream. Every frame comes out, in order, buffer drained.
  ProgressUpdate p1;
  p1.id = 8;
  p1.fraction = 0.25;
  ProgressUpdate p2;
  p2.id = 8;
  p2.fraction = 0.75;
  QueryResponse done;
  done.id = 8;
  done.payload = "cell-bytes";
  std::string wire =
      EncodeServeMessage(kFrameProgress, SerializeProgressUpdate(p1)) +
      EncodeServeMessage(kFrameProgress, SerializeProgressUpdate(p2)) +
      EncodeServeMessage(kFrameQueryResponse, SerializeQueryResponse(done));
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next = FeedAll(&decoder, wire, &message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameProgress));
  EXPECT_DOUBLE_EQ(ParseProgressUpdate(message.bytes)->fraction, 0.25);
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameProgress));
  EXPECT_DOUBLE_EQ(ParseProgressUpdate(message.bytes)->fraction, 0.75);
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(message.type, std::string(kFrameQueryResponse));
  EXPECT_EQ(ParseQueryResponse(message.bytes)->payload, "cell-bytes");
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCorpusTest, OldPeerUnknownTraceJsonFieldsNoDesync) {
  // A traced request and a span-carrying response, each with extra fields
  // from an even newer version, followed by a second plain message on the
  // same stream: nothing desyncs and the extras are ignored.
  const std::string traced_req =
      "{\"op\":\"cell\",\"id\":14,\"dataset\":\"Cricket\","
      "\"matcher\":\"DTMatcher\","
      "\"trace_id\":\"00000000000000010000000000000002\",\"span_id\":3,"
      "\"sampled\":true,\"trace_flags\":255,\"baggage\":{\"k\":\"v\"}}";
  QueryRequest follow;
  follow.op = "ping";
  follow.id = 15;
  std::string wire =
      EncodeServeMessage(kFrameQueryRequest, traced_req) +
      EncodeServeMessage(kFrameQueryRequest, SerializeQueryRequest(follow));
  FrameDecoder decoder;
  ServeMessage message;
  Result<FrameDecoder::Next> next = FeedAll(&decoder, wire, &message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  Result<QueryRequest> first = ParseQueryRequest(message.bytes);
  ASSERT_TRUE(first.ok()) << first.status();
  EXPECT_TRUE(first->trace.valid());
  EXPECT_EQ(first->trace.trace_lo, 2u);
  next = decoder.TryNext(&message);
  ASSERT_TRUE(next.ok());
  ASSERT_EQ(*next, FrameDecoder::Next::kMessage);
  EXPECT_EQ(ParseQueryRequest(message.bytes)->id, 15u);
  EXPECT_EQ(decoder.buffered(), 0u);
}

// --- ServeClient read path (the strict decoder behind a blocking read) ----

/// Forked peer: accepts one connection, reads one request, answers with
/// `script(request id)` written one byte at a time, then holds the
/// connection open until the client hangs up.
class ScriptedPeer {
 public:
  ScriptedPeer(const std::string& socket_path,
               const std::function<std::string(uint64_t)>& script)
      : socket_path_(socket_path) {
    pid_ = ::fork();
    if (pid_ == 0) {
      Serve(socket_path, script);
      ::_exit(0);
    }
  }

  ~ScriptedPeer() {
    ::kill(pid_, SIGKILL);
    int status = 0;
    ::waitpid(pid_, &status, 0);
    ::unlink(socket_path_.c_str());
  }

 private:
  static void Serve(const std::string& socket_path,
                    const std::function<std::string(uint64_t)>& script) {
    Result<int> listen_fd = ListenUnix(socket_path);
    if (!listen_fd.ok() || !PollFd(*listen_fd, POLLIN, 30.0).ok()) return;
    const int fd = ::accept(*listen_fd, nullptr, nullptr);
    if (fd < 0) return;
    FrameDecoder decoder;
    Result<ServeMessage> message = ReadServeMessage(fd, &decoder, 30.0);
    if (!message.ok()) return;
    Result<QueryRequest> request = ParseQueryRequest(message->bytes);
    if (!request.ok()) return;
    for (char byte : script(request->id)) {
      if (!WriteFull(fd, &byte, 1).ok()) return;
      ::usleep(50);
    }
    char sink[256];
    while (ReadSomeBefore(fd, sink, sizeof(sink), MonotonicSeconds() + 30.0)
               .ok()) {
    }
  }

  std::string socket_path_;
  pid_t pid_ = -1;
};

std::string PeerSocketPath(const std::string& leaf) {
  return "/tmp/fairem_" + leaf + "." + std::to_string(::getpid()) + ".sock";
}

Result<ServeClient> ConnectToPeer(const std::string& socket_path,
                                  double io_timeout_s,
                                  int* progress_calls = nullptr) {
  ServeClientOptions options;
  options.io_timeout_s = io_timeout_s;
  options.connect_timeout_s = 30.0;
  if (progress_calls != nullptr) {
    options.on_progress = [progress_calls](const ProgressUpdate&) {
      ++*progress_calls;
    };
  }
  return ServeClient::Connect(socket_path, options);
}

QueryRequest Ping() {
  QueryRequest ping;
  ping.op = "ping";
  return ping;
}

TEST(FrameCorpusTest, ClientReadsPastUnknownFrameMagicAndProgressByteWise) {
  IgnoreSigpipe();
  const std::string path = PeerSocketPath("client_bytewise");
  ScriptedPeer peer(path, [](uint64_t id) {
    ProgressUpdate progress;
    progress.id = id;
    progress.fraction = 0.5;
    QueryResponse response;
    response.id = id;
    response.payload = "pong";
    // The magic that opens the PROG message follows the unknown frame at a
    // frame boundary: the redundant-magic case.
    return EncodeServeMessage("XFUT", "future bytes") +
           EncodeServeMessage(kFrameProgress,
                              SerializeProgressUpdate(progress)) +
           EncodeServeMessage(kFrameQueryResponse,
                              SerializeQueryResponse(response));
  });
  int progress_calls = 0;
  Result<ServeClient> client = ConnectToPeer(path, 30.0, &progress_calls);
  ASSERT_TRUE(client.ok()) << client.status();
  const uint64_t unknown_before = UnknownFrames();
  Result<QueryResponse> response = client->Call(Ping());
  ASSERT_TRUE(response.ok()) << response.status();
  EXPECT_TRUE(response->status.ok()) << response->status;
  EXPECT_EQ(response->payload, "pong");
  EXPECT_EQ(progress_calls, 1);
  EXPECT_EQ(UnknownFrames() - unknown_before, 1u);
  EXPECT_TRUE(client->connected());
}

TEST(FrameCorpusTest, ClientClosesOnCorruptHeaderOrOversizedLength) {
  IgnoreSigpipe();
  const std::string headers[] = {
      Magic() + "QRSPzzzzzzzzzzzzzzzz\n",  // letters in the hex field
      Magic() + "QRSP0000010000000000\n",  // 2^40 declared bytes
  };
  for (const std::string& header : headers) {
    const std::string path = PeerSocketPath("client_corrupt");
    ScriptedPeer peer(path, [&header](uint64_t) { return header; });
    Result<ServeClient> client = ConnectToPeer(path, 30.0);
    ASSERT_TRUE(client.ok()) << client.status();
    const double start = MonotonicSeconds();
    Result<QueryResponse> response = client->Call(Ping());
    EXPECT_FALSE(response.ok()) << header;
    EXPECT_TRUE(response.status().IsInvalidArgument()) << response.status();
    EXPECT_LT(MonotonicSeconds() - start, 10.0) << "must not wait it out";
    EXPECT_FALSE(client->connected()) << header;
  }
}

TEST(FrameCorpusTest, ClientStalledMidFrameGetsDeadlineExceeded) {
  IgnoreSigpipe();
  const std::string path = PeerSocketPath("client_stall");
  ScriptedPeer peer(path, [](uint64_t id) {
    QueryResponse response;
    response.id = id;
    response.payload = "pong";
    const std::string wire = EncodeServeMessage(
        kFrameQueryResponse, SerializeQueryResponse(response));
    return wire.substr(0, wire.size() / 2);
  });
  const double io_timeout_s = 1.0;
  Result<ServeClient> client = ConnectToPeer(path, io_timeout_s);
  ASSERT_TRUE(client.ok()) << client.status();
  const double start = MonotonicSeconds();
  Result<QueryResponse> response = client->Call(Ping());
  const double elapsed = MonotonicSeconds() - start;
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kDeadlineExceeded)
      << response.status();
  EXPECT_GE(elapsed, io_timeout_s);
  EXPECT_LT(elapsed, io_timeout_s + 5.0);
  EXPECT_FALSE(client->connected());
}

}  // namespace
}  // namespace fairem
