// HttpParser robustness corpus (src/apps/http_conn.h): well-formed parses,
// pipelining, byte-at-a-time incremental feeds, and a fuzz-style sweep of
// malformed inputs — truncated headers, oversized lines, bad chunked
// framing, garbage bytes. The contract under test: the parser either yields
// a request, asks for more bytes, or fails with a typed HTTP status; it
// never CHECK-aborts and never buffers past its limits.
//
// The HttpServer cases at the end check response ordering on one
// pipelined connection when some answers are written inline on the loop
// thread and others arrive later from another thread.

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <random>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "apps/http_conn.h"
#include "gtest/gtest.h"

namespace dlinf {
namespace apps {
namespace {

using Status = HttpParser::Status;

/// Feeds `bytes` at once and expects exactly one request.
HttpRequest ParseOne(const std::string& bytes) {
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), Status::kRequest);
  return request;
}

/// Feeds `bytes` at once and expects a typed parse error.
int ParseError(const std::string& bytes) {
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), Status::kError);
  EXPECT_FALSE(parser.error_reason().empty());
  return parser.error_status();
}

TEST(HttpParserTest, ParsesSimpleGet) {
  const HttpRequest request = ParseOne(
      "GET /query?address_id=42&debug=1 HTTP/1.1\r\n"
      "Host: localhost\r\n"
      "X-Custom: padded value \r\n"
      "\r\n");
  EXPECT_EQ(request.method, "GET");
  EXPECT_EQ(request.target, "/query?address_id=42&debug=1");
  EXPECT_EQ(request.path, "/query");
  EXPECT_EQ(request.query, "address_id=42&debug=1");
  EXPECT_EQ(request.minor_version, 1);
  EXPECT_TRUE(request.keep_alive);
  ASSERT_NE(request.FindHeader("host"), nullptr);
  EXPECT_EQ(*request.FindHeader("host"), "localhost");
  ASSERT_NE(request.FindHeader("x-custom"), nullptr);
  EXPECT_EQ(*request.FindHeader("x-custom"), "padded value");
  EXPECT_EQ(request.FindHeader("absent"), nullptr);

  std::string value;
  ASSERT_TRUE(request.QueryParam("address_id", &value));
  EXPECT_EQ(value, "42");
  ASSERT_TRUE(request.QueryParam("debug", &value));
  EXPECT_EQ(value, "1");
  EXPECT_FALSE(request.QueryParam("missing", &value));
}

TEST(HttpParserTest, ConnectionSemanticsByVersionAndHeader) {
  EXPECT_TRUE(ParseOne("GET / HTTP/1.1\r\n\r\n").keep_alive);
  EXPECT_FALSE(ParseOne("GET / HTTP/1.0\r\n\r\n").keep_alive);
  EXPECT_FALSE(
      ParseOne("GET / HTTP/1.1\r\nConnection: close\r\n\r\n").keep_alive);
  EXPECT_TRUE(
      ParseOne("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
          .keep_alive);
}

TEST(HttpParserTest, ParsesPostWithContentLengthBody) {
  const HttpRequest request = ParseOne(
      "POST /query_batch HTTP/1.1\r\n"
      "Content-Length: 11\r\n"
      "\r\n"
      "hello world");
  EXPECT_EQ(request.method, "POST");
  EXPECT_EQ(request.body, "hello world");
}

TEST(HttpParserTest, PipelinedRequestsParseInOrder) {
  HttpParser parser;
  const std::string bytes =
      "GET /a HTTP/1.1\r\n\r\n"
      "POST /b HTTP/1.1\r\nContent-Length: 3\r\n\r\nxyz"
      "GET /c HTTP/1.1\r\n\r\n";
  parser.Feed(bytes.data(), bytes.size());

  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), Status::kRequest);
  EXPECT_EQ(request.path, "/a");
  ASSERT_EQ(parser.Next(&request), Status::kRequest);
  EXPECT_EQ(request.path, "/b");
  EXPECT_EQ(request.body, "xyz");
  ASSERT_EQ(parser.Next(&request), Status::kRequest);
  EXPECT_EQ(request.path, "/c");
  EXPECT_EQ(parser.Next(&request), Status::kNeedMore);
}

TEST(HttpParserTest, ByteAtATimeFeedMatchesWholeFeed) {
  const std::string bytes =
      "POST /q HTTP/1.1\r\nHost: h\r\nContent-Length: 5\r\n\r\nabcde"
      "GET /r?k=v HTTP/1.1\r\n\r\n";
  HttpParser parser;
  std::vector<HttpRequest> requests;
  for (const char c : bytes) {
    parser.Feed(&c, 1);
    HttpRequest request;
    while (parser.Next(&request) == Status::kRequest) {
      requests.push_back(request);
    }
  }
  ASSERT_EQ(requests.size(), 2u);
  EXPECT_EQ(requests[0].path, "/q");
  EXPECT_EQ(requests[0].body, "abcde");
  EXPECT_EQ(requests[1].path, "/r");
  EXPECT_EQ(requests[1].query, "k=v");
}

TEST(HttpParserTest, TruncatedHeadersNeedMoreNotError) {
  for (const std::string prefix :
       {"G", "GET ", "GET /x", "GET /x HTTP/1.1", "GET /x HTTP/1.1\r\n",
        "GET /x HTTP/1.1\r\nHost: local", "GET /x HTTP/1.1\r\nHost: h\r\n"}) {
    HttpParser parser;
    parser.Feed(prefix.data(), prefix.size());
    HttpRequest request;
    EXPECT_EQ(parser.Next(&request), Status::kNeedMore) << prefix;
  }
}

TEST(HttpParserTest, TruncatedBodyNeedsMore) {
  HttpParser parser;
  const std::string bytes =
      "POST /q HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc";
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), Status::kNeedMore);
  parser.Feed("defghij", 7);
  ASSERT_EQ(parser.Next(&request), Status::kRequest);
  EXPECT_EQ(request.body, "abcdefghij");
}

TEST(HttpParserTest, MalformedRequestLinesAre400) {
  EXPECT_EQ(ParseError("GET/x HTTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(ParseError("GET /x HTTP/1.1 extra\r\n\r\n"), 400);
  EXPECT_EQ(ParseError("GET x HTTP/1.1\r\n\r\n"), 400);  // No leading '/'.
  EXPECT_EQ(ParseError("GET /x FTP/1.1\r\n\r\n"), 400);
  EXPECT_EQ(ParseError(" / HTTP/1.1\r\n\r\n"), 400);
}

TEST(HttpParserTest, UnsupportedMethodIs501) {
  EXPECT_EQ(ParseError("DELETE /x HTTP/1.1\r\n\r\n"), 501);
  EXPECT_EQ(ParseError("PATCH /x HTTP/1.1\r\n\r\n"), 501);
}

TEST(HttpParserTest, UnsupportedVersionIs505) {
  EXPECT_EQ(ParseError("GET /x HTTP/2.0\r\n\r\n"), 505);
  EXPECT_EQ(ParseError("GET /x HTTP/0.9\r\n\r\n"), 505);
}

TEST(HttpParserTest, MalformedHeadersAre400) {
  EXPECT_EQ(ParseError("GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"), 400);
  EXPECT_EQ(ParseError("GET /x HTTP/1.1\r\nbad name: v\r\n\r\n"), 400);
  EXPECT_EQ(ParseError("GET /x HTTP/1.1\r\n: empty-name\r\n\r\n"), 400);
}

TEST(HttpParserTest, OversizedRequestLineIs431) {
  // Complete oversized line.
  EXPECT_EQ(ParseError("GET /" + std::string(9000, 'a') + " HTTP/1.1\r\n\r\n"),
            431);
  // Still-unterminated line already past the limit (the slow-loris vector:
  // the parser must not buffer unboundedly waiting for the newline).
  HttpParser parser;
  const std::string bytes = "GET /" + std::string(9000, 'a');
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), Status::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, OversizedHeaderBlockIs431) {
  std::string bytes = "GET /x HTTP/1.1\r\n";
  for (int i = 0; i < 40; ++i) {
    bytes += "x-filler-" + std::to_string(i) + ": " +
             std::string(500, 'v') + "\r\n";
  }
  HttpParser parser;
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  EXPECT_EQ(parser.Next(&request), Status::kError);
  EXPECT_EQ(parser.error_status(), 431);
}

TEST(HttpParserTest, TooManyHeadersIs431) {
  std::string bytes = "GET /x HTTP/1.1\r\n";
  for (int i = 0; i < 80; ++i) {
    bytes += "h" + std::to_string(i) + ": v\r\n";
  }
  bytes += "\r\n";
  EXPECT_EQ(ParseError(bytes), 431);
}

TEST(HttpParserTest, ContentLengthValidation) {
  EXPECT_EQ(ParseError("POST /x HTTP/1.1\r\nContent-Length: ten\r\n\r\n"),
            400);
  EXPECT_EQ(ParseError("POST /x HTTP/1.1\r\nContent-Length: -5\r\n\r\n"),
            400);
  EXPECT_EQ(ParseError("POST /x HTTP/1.1\r\nContent-Length: 1e3\r\n\r\n"),
            400);
  // Larger than max_body_bytes (1 MiB default): rejected before any body
  // byte arrives.
  EXPECT_EQ(
      ParseError("POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"),
      413);
  // Both framing headers present is ambiguous smuggling territory.
  EXPECT_EQ(ParseError("POST /x HTTP/1.1\r\nContent-Length: 3\r\n"
                       "Transfer-Encoding: chunked\r\n\r\n"),
            400);
}

TEST(HttpParserTest, ChunkedBodyDecodes) {
  const HttpRequest request = ParseOne(
      "POST /x HTTP/1.1\r\n"
      "Transfer-Encoding: chunked\r\n"
      "\r\n"
      "4\r\nWiki\r\n"
      "6;ext=1\r\npedia \r\n"
      "b\r\nin chunks..\r\n"
      "0\r\n"
      "X-Trailer: ignored\r\n"
      "\r\n");
  EXPECT_EQ(request.body, "Wikipedia in chunks..");
}

TEST(HttpParserTest, ChunkedByteAtATime) {
  const std::string bytes =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "3\r\nabc\r\n0\r\n\r\n";
  HttpParser parser;
  HttpRequest request;
  for (size_t i = 0; i < bytes.size(); ++i) {
    parser.Feed(&bytes[i], 1);
    const Status status = parser.Next(&request);
    if (i + 1 < bytes.size()) {
      ASSERT_EQ(status, Status::kNeedMore) << "at byte " << i;
    } else {
      ASSERT_EQ(status, Status::kRequest);
    }
  }
  EXPECT_EQ(request.body, "abc");
}

TEST(HttpParserTest, MalformedChunkedFramingIs400) {
  const std::string head =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  EXPECT_EQ(ParseError(head + "zz\r\nab\r\n0\r\n\r\n"), 400);  // Bad hex.
  EXPECT_EQ(ParseError(head + "\r\nab\r\n0\r\n\r\n"), 400);    // Empty size.
  EXPECT_EQ(ParseError(head + "2\r\nabXX0\r\n\r\n"), 400);  // No chunk CRLF.
  EXPECT_EQ(ParseError(head + "fffffffff\r\n"), 400);  // Size line overlong.
  EXPECT_EQ(ParseError(head + "0\r\nbad trailer line\r\n\r\n"), 400);
}

TEST(HttpParserTest, ChunkedBodyOverLimitIs413) {
  const std::string head =
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n";
  // One declared chunk beyond max_body_bytes fails on the size line alone.
  EXPECT_EQ(ParseError(head + "100001\r\n"), 413);  // 0x100001 > 1 MiB.
}

TEST(HttpParserTest, UnsupportedTransferEncodingIs501) {
  EXPECT_EQ(ParseError("POST /x HTTP/1.1\r\nTransfer-Encoding: gzip\r\n\r\n"),
            501);
}

TEST(HttpParserTest, ErrorStatePoisonsParser) {
  HttpParser parser;
  const std::string bad = "BOGUS /x HTTP/1.1\r\n\r\n";
  parser.Feed(bad.data(), bad.size());
  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), Status::kError);
  const int status = parser.error_status();
  // Feeding a perfectly valid request afterwards must not resurrect it.
  const std::string good = "GET / HTTP/1.1\r\n\r\n";
  parser.Feed(good.data(), good.size());
  EXPECT_EQ(parser.Next(&request), Status::kError);
  EXPECT_EQ(parser.error_status(), status);
}

TEST(HttpParserTest, LeadingBlankLinesBetweenRequestsTolerated) {
  HttpParser parser;
  const std::string bytes = "\r\n\r\nGET /a HTTP/1.1\r\n\r\n";
  parser.Feed(bytes.data(), bytes.size());
  HttpRequest request;
  ASSERT_EQ(parser.Next(&request), Status::kRequest);
  EXPECT_EQ(request.path, "/a");
}

TEST(HttpParserTest, BareLfLineEndingsAccepted) {
  const HttpRequest request =
      ParseOne("GET /lf HTTP/1.1\nHost: h\n\n");
  EXPECT_EQ(request.path, "/lf");
  ASSERT_NE(request.FindHeader("host"), nullptr);
}

/// The fuzz sweep: deterministic random mutations of a valid corpus plus
/// pure-garbage streams, fed in random-sized slices. Every outcome must be
/// one of the three statuses with a sane error code — the process surviving
/// the loop IS the assertion (no CHECK-abort, no hang, no unbounded state).
TEST(HttpParserTest, FuzzCorpusNeverAborts) {
  const std::vector<std::string> corpus = {
      "GET /query?address_id=1 HTTP/1.1\r\nHost: h\r\n\r\n",
      "POST /query_batch HTTP/1.1\r\nContent-Length: 20\r\n\r\n"
      "{\"address_ids\":[1]}x",
      "POST /x HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "4\r\nWiki\r\n0\r\n\r\n",
      "HEAD /metrics HTTP/1.0\r\n\r\n",
  };
  std::mt19937 rng(20240809);
  for (int iteration = 0; iteration < 3000; ++iteration) {
    std::string bytes = corpus[rng() % corpus.size()];
    // Mutate: byte flips, truncation, duplication, random splice.
    switch (rng() % 4) {
      case 0:
        for (int i = 0; i < 4 && !bytes.empty(); ++i) {
          bytes[rng() % bytes.size()] = static_cast<char>(rng() % 256);
        }
        break;
      case 1:
        bytes.resize(rng() % (bytes.size() + 1));
        break;
      case 2:
        bytes += corpus[rng() % corpus.size()];
        break;
      case 3: {
        std::string garbage;
        for (int i = 0; i < 64; ++i) {
          garbage.push_back(static_cast<char>(rng() % 256));
        }
        bytes.insert(rng() % (bytes.size() + 1), garbage);
        break;
      }
    }
    HttpParser parser;
    size_t offset = 0;
    int yielded = 0;
    while (offset < bytes.size()) {
      const size_t slice = 1 + rng() % 37;
      const size_t n = std::min(slice, bytes.size() - offset);
      parser.Feed(bytes.data() + offset, n);
      offset += n;
      HttpRequest request;
      HttpParser::Status status;
      while ((status = parser.Next(&request)) == Status::kRequest) {
        ++yielded;
        ASSERT_LT(yielded, 64) << "runaway request production";
      }
      if (status == Status::kError) {
        const int error = parser.error_status();
        ASSERT_TRUE(error == 400 || error == 413 || error == 431 ||
                    error == 501 || error == 505)
            << "untyped error " << error;
        break;
      }
      // Buffered bytes must stay bounded by the header/body limits.
      ASSERT_LT(parser.buffered_bytes(), (1u << 20) + 16384u + 8192u);
    }
  }
}

TEST(HttpParserTest, BuildHttpResponseShapes) {
  const std::string full =
      BuildHttpResponse(200, "application/json", "{\"a\":1}", true);
  EXPECT_NE(full.find("HTTP/1.1 200 OK\r\n"), std::string::npos);
  EXPECT_NE(full.find("Content-Length: 7\r\n"), std::string::npos);
  EXPECT_EQ(full.find("Connection: close"), std::string::npos);
  EXPECT_NE(full.find("{\"a\":1}"), std::string::npos);

  const std::string closing =
      BuildHttpResponse(503, "text/plain", "busy\n", false);
  EXPECT_NE(closing.find("HTTP/1.1 503 Service Unavailable\r\n"),
            std::string::npos);
  EXPECT_NE(closing.find("Connection: close\r\n"), std::string::npos);

  // HEAD: full headers (including the true Content-Length), no body bytes.
  const std::string head =
      BuildHttpResponse(200, "text/plain", "body-bytes", true,
                        /*head_only=*/true);
  EXPECT_NE(head.find("Content-Length: 10\r\n"), std::string::npos);
  EXPECT_EQ(head.find("body-bytes"), std::string::npos);
}

/// Answers `/r?i=K` with body "rK": even K inline on the loop thread, odd K
/// from a helper thread that waits for `odd_expected` of them, then answers
/// in reverse arrival order — so every odd answer completes after the even
/// answers queued behind it.
class SplitResponder {
 public:
  explicit SplitResponder(int odd_expected)
      : odd_expected_(odd_expected), helper_([this] { AnswerDeferred(); }) {}
  ~SplitResponder() { helper_.join(); }

  void Handle(const HttpRequest& request, HttpServer::ResponseHandle handle) {
    std::string k;
    EXPECT_TRUE(request.QueryParam("i", &k));
    std::lock_guard<std::mutex> lock(mu_);
    ++handled_;
    if (std::stoi(k) % 2 == 0) {
      handle.Respond(200, "text/plain", "r" + k);
      return;
    }
    deferred_.emplace_back(std::move(handle), "r" + k);
    cv_.notify_one();
  }

  int handled() {
    std::lock_guard<std::mutex> lock(mu_);
    return handled_;
  }

 private:
  void AnswerDeferred() {
    std::vector<std::pair<HttpServer::ResponseHandle, std::string>> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return static_cast<int>(deferred_.size()) >= odd_expected_;
      });
      batch.swap(deferred_);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    std::reverse(batch.begin(), batch.end());
    for (const auto& [handle, body] : batch) {
      handle.Respond(200, "text/plain", body);
    }
  }

  const int odd_expected_;
  std::mutex mu_;
  std::condition_variable cv_;
  int handled_ = 0;
  std::vector<std::pair<HttpServer::ResponseHandle, std::string>> deferred_;
  std::thread helper_;
};

std::string Burst(int from, int to, int close_at = -1) {
  std::string bytes;
  for (int i = from; i < to; ++i) {
    bytes += "GET /r?i=" + std::to_string(i) + " HTTP/1.1\r\nHost: h\r\n";
    if (i == close_at) bytes += "Connection: close\r\n";
    bytes += "\r\n";
  }
  return bytes;
}

bool HasConnectionClose(
    const std::vector<std::pair<std::string, std::string>>& headers) {
  for (const auto& [name, value] : headers) {
    if (name == "connection" && value == "close") return true;
  }
  return false;
}

TEST(HttpServerTest, InlineAndCrossThreadAnswersKeepRequestOrder) {
  constexpr int kBurst = 16;
  SplitResponder responder(kBurst / 2);
  HttpServer server;
  ASSERT_TRUE(server.Start({}, [&](const HttpRequest& request,
                                   HttpServer::ResponseHandle handle) {
    responder.Handle(request, std::move(handle));
  }));

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(Burst(0, kBurst)));
  for (int i = 0; i < kBurst; ++i) {
    int status = 0;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &body)) << i;
    EXPECT_EQ(status, 200);
    EXPECT_EQ(body, "r" + std::to_string(i));
  }
  // Exactly once: the next answer on the connection is the next request's,
  // not a duplicate of an earlier one.
  ASSERT_TRUE(client.SendRaw(Burst(kBurst, kBurst + 1)));
  int status = 0;
  std::string body;
  ASSERT_TRUE(client.ReadResponse(&status, &body));
  EXPECT_EQ(body, "r" + std::to_string(kBurst));
  EXPECT_EQ(responder.handled(), kBurst + 1);
  server.Stop();
}

TEST(HttpServerTest, ConnectionCloseMidBurstEndsTheBurst) {
  constexpr int kCloseAt = 5;  // Odd: answered from the helper thread.
  SplitResponder responder(/*odd_expected=*/3);
  HttpServer server;
  ASSERT_TRUE(server.Start({}, [&](const HttpRequest& request,
                                   HttpServer::ResponseHandle handle) {
    responder.Handle(request, std::move(handle));
  }));

  HttpClient client;
  ASSERT_TRUE(client.Connect(server.port()));
  ASSERT_TRUE(client.SendRaw(Burst(0, 8, kCloseAt)));
  for (int i = 0; i <= kCloseAt; ++i) {
    int status = 0;
    std::vector<std::pair<std::string, std::string>> headers;
    std::string body;
    ASSERT_TRUE(client.ReadResponse(&status, &headers, &body)) << i;
    EXPECT_EQ(body, "r" + std::to_string(i));
    EXPECT_EQ(HasConnectionClose(headers), i == kCloseAt) << i;
  }
  // The requests pipelined after the close are never dispatched, and the
  // server closes the connection once the last answer is out.
  int status = 0;
  std::string body;
  EXPECT_FALSE(client.ReadResponse(&status, &body));
  EXPECT_EQ(responder.handled(), kCloseAt + 1);
  server.Stop();
}

}  // namespace
}  // namespace apps
}  // namespace dlinf
