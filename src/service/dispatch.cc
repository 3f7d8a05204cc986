#include "service/dispatch.h"

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <condition_variable>
#include <utility>

#include "common/net.h"

namespace optshare::service {
namespace {

/// Requests the stdin loop keeps in flight before it stops reading, so a
/// firehose client cannot queue unbounded work on the handler.
constexpr size_t kMaxInflightLines = 1024;

Status Oversized(size_t max_request_bytes) {
  return Status::ResourceExhausted("request line exceeds the " +
                                   std::to_string(max_request_bytes) +
                                   "-byte cap (--max-request-bytes)");
}

}  // namespace

size_t BatchLineCap(size_t max_request_bytes,
                    size_t max_batch_request_bytes) {
  if (max_request_bytes == 0) return 0;
  return std::max(max_request_bytes, max_batch_request_bytes);
}

Result<protocol::Request> ParseLine(const std::string& line,
                                    size_t max_request_bytes,
                                    size_t framing_cap) {
  // Above the plain cap only a batch frame can be answered, so the codec
  // materializes nothing else there.
  Result<protocol::Request> request =
      protocol::ParseRequestLine(line, framing_cap, max_request_bytes);
  if (max_request_bytes > 0 && line.size() > max_request_bytes &&
      !(request.ok() && request->op == protocol::RequestOp::kBatch)) {
    return Oversized(max_request_bytes);
  }
  return request;
}

std::string ErrorLine(Status status) {
  protocol::Response error = protocol::ErrorResponse("", std::move(status));
  error.version = protocol::kMinProtocolVersion;
  return protocol::FormatResponseLine(error);
}

std::string OversizedLineResponse(size_t max_request_bytes) {
  return ErrorLine(Oversized(max_request_bytes));
}

void DeliverResponse(const protocol::Response& response,
                     const LineCallback& done) {
  // One reused buffer per thread: the capacity converges on the largest
  // response that thread has produced.
  thread_local std::string scratch;
  scratch.clear();
  protocol::AppendResponseLine(response, &scratch);
  done(scratch);
}

void ServeLines(LineHandler* handler, int in_fd, LineCallback sink) {
  OrderedLineWriter writer(std::move(sink));
  const std::string oversize_line = handler->OversizedLineResponse();
  net::LineBuffer lines(handler->max_batch_request_bytes());
  std::mutex mu;
  std::condition_variable cv;
  size_t inflight = 0;

  std::string line;
  char buf[64 * 1024];
  bool reading = true;
  while (reading) {
    const ssize_t got = ::read(in_fd, buf, sizeof(buf));
    if (got < 0 && errno == EINTR) continue;
    if (got > 0) {
      lines.Append(buf, static_cast<size_t>(got));
    } else {
      // EOF (or a read error): a final unterminated line still counts.
      lines.Append("\n", 1);
      reading = false;
    }
    for (;;) {
      const net::LineBuffer::Next next = lines.NextLine(&line);
      if (next == net::LineBuffer::Next::kNeedMore) break;
      if (next == net::LineBuffer::Next::kTooLong) {
        writer.Complete(writer.Reserve(), oversize_line);
        continue;
      }
      if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
      {
        std::unique_lock<std::mutex> lock(mu);
        cv.wait(lock, [&] { return inflight < kMaxInflightLines; });
        ++inflight;
      }
      const uint64_t slot = writer.Reserve();
      const bool is_shutdown = handler->SubmitLine(
          0, line, [slot, &writer, &mu, &cv, &inflight](std::string_view r) {
            writer.Complete(slot, r);
            // Notify under the lock: the waiter destroys `cv` as soon as
            // it sees inflight reach 0.
            std::lock_guard<std::mutex> lock(mu);
            --inflight;
            cv.notify_all();
          });
      // Once a shutdown is acknowledged, whatever the input still holds is
      // intentionally unread.
      if (is_shutdown) {
        reading = false;
        break;
      }
    }
  }
  // Every submitted callback references this frame; wait them out.
  std::unique_lock<std::mutex> lock(mu);
  cv.wait(lock, [&] { return inflight == 0; });
}

uint64_t OrderedLineWriter::Reserve() {
  std::lock_guard<std::mutex> lock(mu_);
  return next_reserve_++;
}

void OrderedLineWriter::Complete(uint64_t slot, std::string_view line) {
  std::lock_guard<std::mutex> lock(mu_);
  if (slot == next_flush_) {
    // In-order arrival: pass the view straight through, no copy, then
    // drain whatever buffered successors it unblocks.
    sink_(line);
    ++next_flush_;
  } else {
    // Out of order: buffer a copy; it flushes once its predecessors land.
    ready_.emplace(slot, std::string(line));
  }
  for (auto it = ready_.begin();
       it != ready_.end() && it->first == next_flush_;) {
    sink_(it->second);
    it = ready_.erase(it);
    ++next_flush_;
  }
}

bool OrderedLineWriter::Idle() const {
  std::lock_guard<std::mutex> lock(mu_);
  return next_flush_ == next_reserve_ && ready_.empty();
}

}  // namespace optshare::service
